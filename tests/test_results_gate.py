"""``repro.results.gate``: trajectory verdicts, fallbacks, acceptance.

The load-bearing guarantees pinned here:

* on a two-run store (committed baseline + fresh payload, the shape CI
  gates) every floor on the committed ``BENCH_simulator.json`` stays
  hard, a shrunken grid fails, and a smoke run after a full one is not
  failed for lacking the full-only e2e metric;
* on a 5-run history of ±20% jittered throughput around a stable median,
  the pairwise rule false-positives (unlucky baseline sample vs unlucky
  current sample) while the trajectory gate correctly passes.
"""

from __future__ import annotations

import copy
import json
from pathlib import Path

import pytest

from repro.errors import ResultsError
from repro.results.gate import gate_store, render_gate_markdown
from repro.results.store import ResultsStore

from tests.test_results_store import bench_payload, serve_payload

REPO = Path(__file__).parent.parent


def committed_bench():
    return json.loads((REPO / "BENCH_simulator.json").read_text())


def two_run_gate(tmp_path, baseline, current, max_regression=0.30):
    """Gate a fresh store seeded with (baseline, current) — the CI shape."""
    path = tmp_path / f"pair-{len(list(tmp_path.glob('pair-*.db')))}.db"
    with ResultsStore(path) as store:
        store.ingest(baseline, source="baseline")
        store.ingest(current, source="current")
        return gate_store(store, kind="bench", max_regression=max_regression)


# ------------------------------------ acceptance: baseline + fresh run


def test_gate_matches_pairwise_on_committed_baseline_ok(tmp_path):
    base = committed_bench()
    cur = copy.deepcopy(base)
    for row in cur["drive"].values():
        row["fast_accesses_per_s"] = int(row["fast_accesses_per_s"] * 0.9)
    assert two_run_gate(tmp_path, base, cur).ok


def test_gate_matches_pairwise_on_throughput_regression(tmp_path):
    base = committed_bench()
    cur = copy.deepcopy(base)
    cur["drive"]["seq_read/good/t1"]["fast_accesses_per_s"] = int(
        base["drive"]["seq_read/good/t1"]["fast_accesses_per_s"] * 0.5)
    report = two_run_gate(tmp_path, base, cur)
    assert not report.ok
    assert any(r.name == "drive.seq_read/good/t1.fast_accesses_per_s"
               and r.regressed for r in report.rows)


def test_gate_keeps_speedup_floor_hard(tmp_path):
    base = committed_bench()
    cur = copy.deepcopy(base)
    cur["drive"]["psums/bad-fs/t4"]["speedup"] = 1.1  # floor is 1.3
    report = two_run_gate(tmp_path, base, cur)
    breached = [r for r in report.rows
                if r.name == "drive.psums/bad-fs/t4.speedup"
                and r.mode == "bound"]
    assert breached and breached[0].regressed
    assert breached[0].reference == 1.3
    # No tolerance softens the floor — huge max_regression, same verdict.
    with ResultsStore(tmp_path / "g2.db") as store:
        store.ingest(base)
        store.ingest(cur)
        loose = gate_store(store, kind="bench", max_regression=0.9)
    assert any(r.mode == "bound" and r.regressed for r in loose.rows)


def test_gate_fails_compilerless_run_on_every_speedup_floor(tmp_path):
    # Without a C compiler the shipping drive runs the Python spec loop,
    # so every row times ref against ref (~1.0x).  The speedup floors
    # alone fail that run, on every pinned trace.
    base = committed_bench()
    cur = copy.deepcopy(base)
    for row in cur["drive"].values():
        row["strategy"] = "ref"
        row["fast_accesses_per_s"] = row["ref_accesses_per_s"]
        row["speedup"] = 1.0
    report = two_run_gate(tmp_path, base, cur, max_regression=0.9)
    assert not report.ok
    breached = sorted(r.name for r in report.rows
                      if r.mode == "bound" and r.regressed)
    assert breached == sorted(f"drive.{label}.speedup"
                              for label in base["drive"])


def test_gate_fails_on_missing_grid_case_like_pairwise(tmp_path):
    base = committed_bench()
    cur = copy.deepcopy(base)
    del cur["drive"]["psums/bad-fs/t4"]
    report = two_run_gate(tmp_path, base, cur)
    assert not report.ok
    assert any("psums/bad-fs/t4" in tag for tag in report.missing)


def test_smoke_run_after_full_run_is_not_missing_e2e(tmp_path):
    # The committed baseline is a --full run (it records e2e wall time);
    # a --smoke run never measures e2e.  It must not fail as "missing".
    full = committed_bench()
    assert full["e2e"]["parallel_fast_s"] > 0
    smoke = copy.deepcopy(full)
    smoke["mode"] = "smoke"
    smoke["e2e"] = {}
    report = two_run_gate(tmp_path, full, smoke)
    assert report.missing == []
    assert report.ok
    assert not any(r.name == "e2e.parallel_fast_s" for r in report.rows)
    # A drive label missing from the smoke run still fails as before.
    del smoke["drive"]["psums/bad-fs/t4"]
    with ResultsStore(tmp_path / "g2.db") as store:
        store.ingest(full)
        store.ingest(smoke)
        shrunk = gate_store(store, kind="bench")
    assert not shrunk.ok
    assert "bench:drive.psums/bad-fs/t4.fast_accesses_per_s" in shrunk.missing
    assert "bench:e2e.parallel_fast_s" not in shrunk.missing


def test_full_run_after_smoke_run_gates_e2e_pairwise(tmp_path):
    # e2e is judged whenever the latest run carries it, against the last
    # run that also carried it ("gated only when both carry it").
    full = committed_bench()
    smoke = copy.deepcopy(full)
    smoke["mode"] = "smoke"
    smoke["e2e"] = {}
    slow = copy.deepcopy(full)
    slow["e2e"]["parallel_fast_s"] = full["e2e"]["parallel_fast_s"] * 2
    with ResultsStore(tmp_path / "g.db") as store:
        for doc in (full, smoke, slow):
            store.ingest(doc)
        report = gate_store(store, kind="bench")
    row = next(r for r in report.rows if r.name == "e2e.parallel_fast_s")
    assert row.mode == "pairwise"
    assert row.reference == full["e2e"]["parallel_fast_s"]
    assert row.regressed


# ------------------------------------ acceptance: jittered trajectory


#: Five throughput samples jittered ±20% around a stable 1.0e6 median —
#: the run-to-run noise profile Röhl et al. describe for counter-derived
#: metrics on shared CI runners.
JITTERED = [1_200_000, 800_000, 1_000_000, 1_150_000, 850_000]


def test_trajectory_gate_beats_pairwise_on_noisy_history(tmp_path):
    # Pairwise methodology: whichever single sample happened to be
    # committed is the baseline.  The unlucky high sample vs the unlucky
    # low sample crosses the 30% line — a false positive, nothing
    # actually regressed.
    unlucky_base = bench_payload(fast=max(JITTERED))
    unlucky_cur = bench_payload(fast=min(JITTERED))
    assert not two_run_gate(tmp_path, unlucky_base, unlucky_cur).ok

    # Trajectory methodology over the same five samples: the median is
    # stable, the MAD captures the jitter, and the same unlucky low
    # sample sits comfortably inside the band.
    with ResultsStore(tmp_path / "g.db") as store:
        for fast in JITTERED:
            store.ingest(bench_payload(fast=fast))
        store.ingest(bench_payload(fast=min(JITTERED) - 1))  # fresh low run
        report = gate_store(store, kind="bench")
    row = next(r for r in report.rows
               if r.name == "drive.psums/bad-fs/t4.fast_accesses_per_s")
    assert row.mode == "trajectory"
    assert not row.regressed
    assert report.ok

    # ...but a genuine collapse still trips the same band.
    with ResultsStore(tmp_path / "g2.db") as store:
        for fast in JITTERED:
            store.ingest(bench_payload(fast=fast))
        store.ingest(bench_payload(fast=100_000))
        bad = gate_store(store, kind="bench")
    assert not bad.ok


# ------------------------------------------------- small-history edges


def test_gate_single_run_checks_bounds_only(tmp_path):
    with ResultsStore(tmp_path / "g.db") as store:
        store.ingest(bench_payload(speedup=2.0, floor=1.3))
        report = gate_store(store)
    assert report.ok
    assert {r.mode for r in report.rows} <= {"new", "bound"}
    # Same single-run store, floor breached: still fails at N=1.
    with ResultsStore(tmp_path / "g2.db") as store:
        store.ingest(bench_payload(speedup=1.1, floor=1.3))
        report = gate_store(store)
    assert not report.ok
    assert all(r.mode == "bound" for r in report.regressions)


def test_gate_two_runs_use_pairwise_not_bands(tmp_path):
    with ResultsStore(tmp_path / "g.db") as store:
        store.ingest(bench_payload(fast=1_000_000))
        store.ingest(bench_payload(fast=500_000))
        report = gate_store(store)
    row = next(r for r in report.rows
               if r.name == "drive.psums/bad-fs/t4.fast_accesses_per_s")
    assert row.mode == "pairwise"
    assert row.regressed  # -50% > 30% tolerance
    assert not report.ok


def test_gate_zero_history_values_never_divide(tmp_path):
    # shed 0 -> 0 passes; shed 0 -> 3 fails, with no ZeroDivisionError.
    with ResultsStore(tmp_path / "g.db") as store:
        store.ingest(serve_payload(shed=0))
        store.ingest(serve_payload(vps=37_001.0, shed=0))
        assert gate_store(store, kind="serve").ok
    with ResultsStore(tmp_path / "g2.db") as store:
        store.ingest(serve_payload(shed=0))
        store.ingest(serve_payload(vps=37_001.0, shed=3))
        report = gate_store(store, kind="serve")
    assert not report.ok
    assert any(r.name == "server-line.shed" and r.regressed
               for r in report.rows)


def test_gate_improvements_always_pass(tmp_path):
    with ResultsStore(tmp_path / "g.db") as store:
        for fast in JITTERED:
            store.ingest(bench_payload(fast=fast))
        store.ingest(bench_payload(fast=10_000_000))  # 10x better
        assert gate_store(store, kind="bench").ok


def test_gate_parameter_validation(tmp_path):
    with ResultsStore(tmp_path / "g.db") as store:
        store.ingest(bench_payload())
        with pytest.raises(ResultsError):
            gate_store(store, max_regression=1.5)
        with pytest.raises(ResultsError):
            gate_store(store, window=0)
        with pytest.raises(ResultsError):
            gate_store(store, min_history=0)
        with pytest.raises(ResultsError):
            gate_store(store, kind="serve")  # no serve runs ingested


def test_gate_report_renders_and_serializes(tmp_path):
    with ResultsStore(tmp_path / "g.db") as store:
        store.ingest(bench_payload())
        store.ingest(bench_payload(fast=100_000))
        report = gate_store(store)
    text = report.render()
    assert "results gate" in text and "REGRESSED" in text
    doc = report.to_dict()
    assert doc["ok"] is False and doc["rows"]
    md = render_gate_markdown(report)
    assert md.startswith("**results gate: FAIL**")
    assert "| bench |" in md
