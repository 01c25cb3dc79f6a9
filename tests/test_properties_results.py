"""Property-based tests: run-store append/dedup laws and band safety.

Hypothesis drives the two contracts the CI history leans on: ingest is
*monotone* (run ids only grow, rows are never rewritten) and *idempotent
modulo digest* (re-ingesting any permutation of already-seen payloads
adds nothing), and the MAD band is defined — with ordered, finite
edges — for every non-empty history the gate can encounter.
"""

from __future__ import annotations

import math

from hypothesis import given, settings, strategies as st

from repro.results.schema import payload_digest
from repro.results.store import ResultsStore
from repro.results.trend import mad_band

from tests.test_results_store import bench_payload

#: A small value pool so generated sequences actually collide.
payload_values = st.integers(min_value=1, max_value=8).map(
    lambda i: i * 100_000)


@settings(max_examples=30, deadline=None)
@given(st.lists(payload_values, min_size=1, max_size=12))
def test_ingest_is_monotone_and_dedups_on_digest(tmp_path_factory, values):
    path = tmp_path_factory.mktemp("props") / "h.db"
    payloads = [bench_payload(fast=v) for v in values]
    distinct = {payload_digest(p) for p in payloads}
    with ResultsStore(path) as store:
        ids = [store.ingest(p).run_id for p in payloads]
        runs = store.runs()
        # Monotone append: ids of fresh rows strictly increase, and the
        # store holds exactly one row per distinct digest.
        assert [r.run_id for r in runs] == sorted(r.run_id for r in runs)
        assert len(runs) == len(distinct)
        assert {r.digest for r in runs} == distinct
        # Every ingest outcome points at a live row.
        assert set(ids) == {r.run_id for r in runs}
        # Idempotence: re-ingesting every payload in reverse order adds
        # nothing and reports dedup for all of them.
        outcomes = [store.ingest(p) for p in reversed(payloads)]
        assert not any(o.fresh for o in outcomes)
        assert len(store.runs()) == len(distinct)
        # The metric series keeps first-ingest order of distinct values.
        seen: list = []
        for v in values:
            if float(v) not in seen:
                seen.append(float(v))
        assert store.series(
            "drive.psums/bad-fs/t4.fast_accesses_per_s") == seen


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.floats(min_value=-1e9, max_value=1e9,
                  allow_nan=False, allow_infinity=False),
        min_size=1, max_size=20,
    ),
    st.floats(min_value=0.0, max_value=0.99),
)
def test_mad_band_is_always_defined_and_ordered(values, max_regression):
    band = mad_band(values, max_regression=max_regression)
    assert math.isfinite(band.lo) and math.isfinite(band.hi)
    assert band.lo <= band.median <= band.hi
    assert band.mad >= 0.0
    # The median itself is always inside its own band.
    assert band.contains(band.median)


@settings(max_examples=25, deadline=None)
@given(st.lists(payload_values, min_size=1, max_size=6))
def test_gate_never_raises_on_any_small_history(tmp_path_factory, values):
    from repro.results.gate import gate_store

    path = tmp_path_factory.mktemp("gate") / "h.db"
    with ResultsStore(path) as store:
        for v in values:
            store.ingest(bench_payload(fast=v))
        report = gate_store(store)
    # Verdicts may go either way; the invariant is no crash and a full
    # row set for the latest run's gatable metrics.
    assert {r.name for r in report.rows} >= {
        "drive.psums/bad-fs/t4.fast_accesses_per_s",
        "drive.psums/bad-fs/t4.speedup",
    }
