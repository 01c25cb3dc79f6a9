"""``repro-bench`` and the gating of its payloads by ``repro-results``."""

from __future__ import annotations

import gc
import json

import numpy as np
import pytest

from repro.coherence import native
from repro.errors import ResultsError
from repro.results.cli import results_main
from repro.results.gate import gate_store
from repro.results.schema import KNOWN_SECTIONS
from repro.results.store import ResultsStore
from repro.telemetry import bench as bench_mod
from repro.telemetry.bench import bench_main
from repro.telemetry.core import TELEMETRY
from repro.trace.access import ProgramTrace, ThreadTrace

from tests.test_results_gate import two_run_gate


@pytest.fixture(autouse=True)
def _global_telemetry_off():
    TELEMETRY.disable()
    TELEMETRY.reset()
    yield
    TELEMETRY.disable()
    TELEMETRY.reset()


def _payload(fast=1_000_000, e2e=None):
    doc = {
        "bench": "simulator-throughput",
        "drive": {
            "psums/good/t4": {
                "accesses": 96_000,
                "ref_accesses_per_s": fast / 2,
                "fast_accesses_per_s": fast,
                "speedup": 2.0,
            },
        },
        "e2e": {},
    }
    if e2e is not None:
        doc["e2e"] = {"parallel_fast_s": e2e}
    return doc


# ------------------------------------- gating: baseline + current run
#
# repro-bench only measures; a baseline comparison is a two-run
# repro-results store (baseline ingested first, then the current run)
# gated by repro.results.gate — the shape CI runs.

FAST = "drive.psums/good/t4.fast_accesses_per_s"
SPEEDUP = "drive.psums/good/t4.speedup"


def _row(report, name):
    return next(r for r in report.rows if r.name == name)


def _regressed(report):
    return [(r.name, r.mode) for r in report.regressions]


def test_compare_within_tolerance_passes(tmp_path):
    report = two_run_gate(tmp_path, _payload(fast=1_000_000),
                          _payload(fast=800_000))
    assert report.ok
    row = _row(report, FAST)
    assert row.mode == "pairwise"
    assert row.current / row.reference == pytest.approx(0.8)
    assert not row.regressed
    assert "ok" in report.render()


def test_compare_flags_throughput_regression(tmp_path):
    report = two_run_gate(tmp_path, _payload(fast=1_000_000),
                          _payload(fast=600_000))
    assert not report.ok
    assert _regressed(report) == [(FAST, "pairwise")]
    assert "REGRESSED" in report.render()
    d = report.to_dict()
    assert d["ok"] is False
    assert any(r["name"] == FAST and r["regressed"] for r in d["rows"])


def test_compare_improvement_always_passes(tmp_path):
    report = two_run_gate(tmp_path, _payload(fast=1_000_000),
                          _payload(fast=5_000_000))
    row = _row(report, FAST)
    assert report.ok and row.current / row.reference == pytest.approx(5.0)


def test_compare_missing_baseline_case_fails_gate(tmp_path):
    current = _payload()
    del current["drive"]["psums/good/t4"]
    current["drive"]["something/else"] = {"fast_accesses_per_s": 1}
    report = two_run_gate(tmp_path, _payload(), current)
    assert report.missing == [f"bench:{FAST}", f"bench:{SPEEDUP}"]
    assert not report.ok
    assert "missing from latest run" in report.render()


def test_compare_new_case_without_baseline_is_ignored(tmp_path):
    current = _payload()
    current["drive"]["brand/new"] = {"fast_accesses_per_s": 1}
    report = two_run_gate(tmp_path, _payload(), current)
    assert report.ok
    assert _row(report, "drive.brand/new.fast_accesses_per_s").mode == "new"


def test_compare_e2e_is_lower_is_better(tmp_path):
    # 10s -> 12s is a 17% slowdown: fine at 30%, fatal at 10%.
    ok = two_run_gate(tmp_path, _payload(e2e=10.0), _payload(e2e=12.0),
               max_regression=0.30)
    assert ok.ok
    bad = two_run_gate(tmp_path, _payload(e2e=10.0), _payload(e2e=12.0),
                max_regression=0.10)
    assert _regressed(bad) == [("e2e.parallel_fast_s", "pairwise")]
    row = _row(bad, "e2e.parallel_fast_s")
    assert row.reference / row.current == pytest.approx(10.0 / 12.0)


def test_compare_rejects_bad_threshold(tmp_path, capsys):
    db = str(tmp_path / "g.db")
    base = _write(tmp_path / "base.json", _payload())
    cur = _write(tmp_path / "cur.json", _payload(fast=900_000))
    assert results_main(["ingest", db, base, cur]) == 0
    for bad in ("1.5", "-0.1"):
        assert results_main(["gate", db, f"--max-regression={bad}"]) == 2
        assert "max_regression" in capsys.readouterr().err
    with ResultsStore(db) as store:
        with pytest.raises(ResultsError):
            gate_store(store, max_regression=1.5)


def test_compare_accepts_historical_baseline_shape(tmp_path):
    # The committed BENCH_simulator.json predates the "mode"/"repeats"
    # keys; the store must accept it as-is so the first CI run can use it.
    legacy = {"drive": {"psums/good/t4": {"fast_accesses_per_s": 1_000_000}}}
    assert two_run_gate(tmp_path, legacy, _payload(fast=900_000)).ok


# --------------------------------------------------------- CLI: --input


def _write(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def test_cli_input_mode_pass_exit_0(tmp_path, capsys):
    db = str(tmp_path / "pair.db")
    cur = _write(tmp_path / "cur.json", _payload(fast=900_000))
    base = _write(tmp_path / "base.json", _payload(fast=1_000_000))
    assert results_main(["ingest", db, base]) == 0
    assert bench_main(["--input", cur, "--results-store", db]) == 0
    assert results_main(["gate", db, "--kind", "bench"]) == 0
    assert "results gate: PASS" in capsys.readouterr().out


def test_cli_input_mode_regression_exit_1(tmp_path, capsys):
    db = str(tmp_path / "pair.db")
    cur = _write(tmp_path / "cur.json", _payload(fast=500_000))
    base = _write(tmp_path / "base.json", _payload(fast=1_000_000))
    assert results_main(["ingest", db, base]) == 0
    assert bench_main(["--input", cur, "--results-store", db]) == 0
    assert results_main(["gate", db, "--kind", "bench"]) == 1
    err = capsys.readouterr().err
    assert "results gate: FAIL" in err and "1 regression" in err


def test_cli_missing_baseline_exit_2(tmp_path, capsys):
    rc = results_main(["ingest", str(tmp_path / "pair.db"),
                       str(tmp_path / "nope.json")])
    assert rc == 2
    assert "cannot read payload" in capsys.readouterr().err


def test_cli_missing_input_exit_2(tmp_path, capsys):
    rc = bench_main(["--input", str(tmp_path / "nope.json")])
    assert rc == 2
    assert "input not found" in capsys.readouterr().err


def test_cli_corrupt_baseline_exit_2(tmp_path, capsys):
    base = tmp_path / "base.json"
    base.write_text("{not json")
    assert results_main(["ingest", str(tmp_path / "pair.db"),
                         str(base)]) == 2
    assert "error:" in capsys.readouterr().err


def test_cli_input_without_baseline_exit_0(tmp_path):
    cur = _write(tmp_path / "cur.json", _payload())
    assert bench_main(["--input", cur]) == 0


def test_cli_has_no_gate_options(capsys):
    # repro-bench only measures; verdicts come from repro-results gate.
    with pytest.raises(SystemExit) as exc:
        bench_main(["--help"])
    assert exc.value.code == 0
    text = capsys.readouterr().out
    assert "--baseline" not in text and "--max-regression" not in text
    with pytest.raises(SystemExit) as exc:
        bench_main(["--baseline", "BENCH_simulator.json"])
    assert exc.value.code == 2


# ------------------------------------------------------- CLI: run mode


def _tiny_traces():
    """Stand-in for the pinned grid: milliseconds instead of seconds."""
    addrs = np.repeat(np.arange(8, dtype=np.int64) * 64, 250)
    writes = np.zeros(addrs.size, dtype=bool)
    yield "tiny/t1", ProgramTrace([ThreadTrace(addrs, writes)], name="tiny")


def _tiny_store_workers():
    """Stand-in for the memmap-worker RSS measurement."""
    return {"case": "tiny/t1", "workers": 2, "store_bytes": 4_096,
            "worker_peak_rss_kib": [10_000, 10_100], "note": "stub"}


@pytest.fixture
def tiny_bench(monkeypatch):
    """Patch every grid-scale measurement down to milliseconds."""
    monkeypatch.setattr(bench_mod, "drive_traces", _tiny_traces)
    monkeypatch.setattr(bench_mod, "measure_store_workers",
                        _tiny_store_workers)


@pytest.mark.parametrize("gc_on", [True, False])
def test_best_of_times_round_robin_with_gc_off(gc_on):
    calls = []

    def timed(name):
        def fn():
            calls.append((name, gc.isenabled()))
        return fn

    was = gc.isenabled()
    (gc.enable if gc_on else gc.disable)()
    try:
        best = bench_mod._best_of({"a": timed("a"), "b": timed("b")},
                                  repeats=3)
        assert gc.isenabled() is gc_on  # prior state restored
    finally:
        (gc.enable if was else gc.disable)()
    assert set(best) == {"a", "b"} and all(t > 0 for t in best.values())
    # Rounds interleave the functions; no call ran with the GC on.
    assert [name for name, _ in calls] == ["a", "b"] * (len(calls) // 2)
    assert not any(enabled for _, enabled in calls)
    # Near-instant calls repeat past ``repeats`` to fill MIN_TIMED_S.
    assert len(calls) > 2 * 3


def test_cli_run_mode_writes_result_and_manifest(tmp_path, tiny_bench, capsys):
    out = tmp_path / "bench" / "result.json"
    trace = tmp_path / "trace.json"
    rc = bench_main(["--smoke", "--output", str(out),
                     "--chrome-trace", str(trace)])
    assert rc == 0
    payload = json.loads(out.read_text())
    # BENCH_simulator.json-compatible shape.
    assert payload["bench"] == "simulator-throughput"
    assert payload["mode"] == "smoke"
    assert set(payload) <= KNOWN_SECTIONS
    row = payload["drive"]["tiny/t1"]
    assert row["accesses"] == 2_000
    assert row["fast_accesses_per_s"] > 0 and row["ref_accesses_per_s"] > 0
    oracle = payload["oracle"]["tiny/t1"]
    assert oracle["accesses"] == 2_000
    assert oracle["fast_accesses_per_s"] > 0
    assert oracle["ref_accesses_per_s"] > 0
    assert payload["store_workers"]["worker_peak_rss_kib"]
    manifest = json.loads(
        (out.parent / "result-manifest.json").read_text())
    assert manifest["schema"].startswith("repro-manifest/")
    assert manifest["config"]["mode"] == "smoke"
    assert "bench" in manifest["wall_time_tree"]
    chrome = json.loads(trace.read_text())
    names = {e.get("name") for e in chrome["traceEvents"]}
    assert {"bench.drive", "bench.oracle"} <= names
    console = capsys.readouterr().out
    assert "result:" in console and "store workers" in console
    # The run restored the global collector to its disabled default.
    assert not TELEMETRY.enabled


def test_cli_run_mode_gates_against_fresh_baseline(tmp_path, tiny_bench):
    out1 = tmp_path / "one.json"
    assert bench_main(["--smoke", "--output", str(out1)]) == 0
    # A second run with the same rates passes the gate at the default 30%
    # tolerance.  Its rates are copied, not re-timed, so host load cannot
    # fail it; a distinct non-metric field keeps its digest apart, since
    # the store keeps one run per (kind, digest).
    doc = json.loads(out1.read_text())
    doc["store_workers"]["note"] = "second run"
    out2 = tmp_path / "two.json"
    out2.write_text(json.dumps(doc))
    db = str(tmp_path / "pair.db")
    assert results_main(["ingest", db, str(out1), str(out2)]) == 0
    with ResultsStore(db) as store:
        assert len(store.runs(kind="bench")) == 2
    assert results_main(["gate", db, "--kind", "bench"]) == 0
    # Inflate the baseline 10x: the second run must now fail the gate.
    doc = json.loads(out1.read_text())
    for row in doc["drive"].values():
        row["fast_accesses_per_s"] *= 10
    out1.write_text(json.dumps(doc))
    db = str(tmp_path / "inflated.db")
    assert results_main(["ingest", db, str(out1), str(out2)]) == 0
    assert results_main(["gate", db, "--kind", "bench"]) == 1


# ------------------------------------------------- speedup floors / table


def test_compare_enforces_speedup_floor_from_baseline(tmp_path):
    base = _payload()
    base["drive"]["psums/good/t4"]["speedup_floor"] = 1.3
    # current speedup 2.0 clears the 1.3 floor
    assert two_run_gate(tmp_path, base, _payload()).ok
    cur = _payload()
    cur["drive"]["psums/good/t4"]["speedup"] = 1.1
    bad = two_run_gate(tmp_path, base, cur)
    assert not bad.ok
    # The floor breach, plus the 2.0 -> 1.1 pairwise drop: speedup is
    # judged pairwise like every other higher-is-better metric.
    assert _regressed(bad) == [(SPEEDUP, "bound"), (SPEEDUP, "pairwise")]
    # The floor is hard: a huge tolerance must not soften it.
    still_bad = two_run_gate(tmp_path, base, cur, max_regression=0.9)
    assert _regressed(still_bad) == [(SPEEDUP, "bound")]
    assert "REGRESSED" in bad.render()


def test_compare_floor_carried_by_current_payload_also_gates(tmp_path):
    # A fresh run records its own floor; gating against a pre-floor
    # baseline must still enforce it.
    cur = _payload()
    cur["drive"]["psums/good/t4"].update(speedup=1.0, speedup_floor=1.3)
    bad = two_run_gate(tmp_path, _payload(), cur)
    assert {name for name, _ in _regressed(bad)} == {SPEEDUP}
    assert _row(bad, SPEEDUP).mode == "bound"
    assert _row(bad, SPEEDUP).reference == 1.3
    still_bad = two_run_gate(tmp_path, _payload(), cur, max_regression=0.9)
    assert _regressed(still_bad) == [(SPEEDUP, "bound")]


def test_render_speedup_table_lists_every_strategy():
    from repro.telemetry.bench import render_speedup_table

    payload = _payload()
    payload["drive"]["psums/good/t4"].update(strategy="native",
                                             speedup_floor=1.3)
    payload["oracle"] = {"psums/good/t4": dict(
        payload["drive"]["psums/good/t4"], speedup=9.5)}
    table = render_speedup_table(payload)
    for col in ("ref acc/s", "fast acc/s", "fast path", "floor"):
        assert col in table
    assert "drive psums/good/t4" in table and "native" in table
    assert "oracle psums/good/t4" in table and "9.50x" in table
    assert "1.30x" in table and "2.00x" in table


def test_cli_run_mode_writes_speedup_table(tmp_path, tiny_bench):
    out = tmp_path / "result.json"
    table = tmp_path / "speedups.txt"
    assert bench_main(["--smoke", "--output", str(out),
                       "--speedup-table", str(table)]) == 0
    text = table.read_text()
    assert "drive tiny/t1" in text and "oracle tiny/t1" in text
    assert "fast path" in text
    payload = json.loads(out.read_text())
    for section in ("drive", "oracle"):
        row = payload[section]["tiny/t1"]
        for path in ("ref", "fast"):
            assert row[f"{path}_accesses_per_s"] > 0
        assert row["strategy"] in ("native", "ref")
        assert row["speedup_floor"] == bench_mod.SPEEDUP_FLOOR


def test_measure_drive_records_the_path_that_ran(tiny_bench, monkeypatch):
    # Without a C compiler the shipping drive runs the spec loop: the row
    # says so, and its speedup is ref against ref (~1.0x), below the floor
    # that fails such a run at the gate.  The library is asked for before
    # any timing, so a cold cc build is never charged to a timed call.
    calls = []
    real_best_of = bench_mod._best_of

    def no_compiler():
        calls.append("load")

    def best_of(fns, repeats):
        calls.append("time")
        return real_best_of(fns, repeats)

    monkeypatch.setattr(native, "load", no_compiler)
    monkeypatch.setattr(bench_mod, "_best_of", best_of)
    # The oracle rows go through the same measure loop.
    for measure in (bench_mod.measure_drive, bench_mod.measure_oracle):
        calls.clear()
        row = measure(repeats=3)["tiny/t1"]
        assert calls[0] == "load" and "time" in calls
        assert row["strategy"] == "ref"
        assert row["speedup_floor"] == bench_mod.SPEEDUP_FLOOR
        assert row["speedup"] < bench_mod.SPEEDUP_FLOOR


def test_compare_identical_payloads_dedup_into_one_run(tmp_path):
    # Identical payloads dedup into one run: bounds and "new" rows only.
    report = two_run_gate(tmp_path, _payload(), _payload())
    assert report.ok
    with ResultsStore(next(tmp_path.glob("pair-*.db"))) as store:
        assert len(store.runs()) == 1


# ------------------------------------------- silent-drift shape guard
#
# The payload shape is checked at ingest (repro.results.schema), so a
# drifted document is a hard error (exit 2) and never enters a history.


def _refused(tmp_path, doc):
    """Ingest ``doc`` and return the error; the store must stay empty."""
    with ResultsStore(tmp_path / "refuse.db") as store:
        with pytest.raises(ResultsError) as err:
            store.ingest(doc)
        assert store.runs() == []
    return str(err.value)


def test_compare_rejects_baseline_without_drive_section(tmp_path):
    # The silent-drift hazard: a baseline missing the section the gate
    # keys on used to produce zero comparison rows and exit 0.
    for broken in ({}, {"drive": {}}, {"e2e": {"parallel_fast_s": 1.0}}):
        _refused(tmp_path, broken)
    assert "drive" in _refused(tmp_path, {"drive": {}})


def test_compare_rejects_current_without_drive_section(tmp_path):
    assert "drive" in _refused(tmp_path, {"bench": "simulator-throughput"})


# ``routing`` and ``telemetry`` are retired sections no writer produces.
@pytest.mark.parametrize("section", ["shiny_new_numbers", "routing",
                                     "telemetry"])
def test_compare_rejects_unknown_sections(tmp_path, section):
    mystery = _payload()
    mystery[section] = {"x": 1}
    msg = _refused(tmp_path, mystery)
    assert section in msg and "KNOWN_SECTIONS" in msg


def test_compare_rejects_baseline_row_without_throughput(tmp_path):
    base = _payload()
    base["drive"]["psums/good/t4"] = {"speedup": 2.0}  # key dropped
    assert "fast_accesses_per_s" in _refused(tmp_path, base)
    base["drive"]["psums/good/t4"] = {"fast_accesses_per_s": 0}
    assert "fast_accesses_per_s" in _refused(tmp_path, base)


def test_compare_rejects_non_object_row(tmp_path):
    base = _payload()
    base["drive"]["psums/good/t4"] = 5
    assert "not an object" in _refused(tmp_path, base)


def test_oracle_rows_are_checked_and_gated_like_drive_rows(tmp_path):
    base = _payload()
    base["oracle"] = {"psums/good/t4": {"fast_accesses_per_s": 0}}
    assert "oracle" in _refused(tmp_path, base)
    base["oracle"] = [1]
    assert "oracle section" in _refused(tmp_path, base)
    base["oracle"] = {"psums/good/t4": dict(
        _payload()["drive"]["psums/good/t4"], speedup_floor=1.3)}
    cur = json.loads(json.dumps(base))
    cur["oracle"]["psums/good/t4"]["speedup"] = 1.1
    bad = two_run_gate(tmp_path, base, cur)
    assert ("oracle.psums/good/t4.speedup", "bound") in _regressed(bad)
    del cur["oracle"]
    assert "bench:oracle.psums/good/t4.speedup" in two_run_gate(
        tmp_path, base, cur).missing


def test_cli_missing_section_is_exit_2_not_silent_pass(tmp_path, capsys):
    cur = _write(tmp_path / "cur.json", _payload())
    truncated = dict(_payload())
    del truncated["drive"]
    base = _write(tmp_path / "base.json", truncated)
    db = str(tmp_path / "pair.db")
    assert results_main(["ingest", db, base, cur]) == 2
    assert "drive" in capsys.readouterr().err
    # repro-bench --results-store refuses it the same way.
    assert bench_main(["--input", base, "--results-store", db]) == 2
    assert "drive" in capsys.readouterr().err


def test_committed_baseline_sections_are_all_known(tmp_path):
    # BENCH_simulator.json must always pass the shape guard — otherwise
    # the CI gate would fail on its own baseline.
    from pathlib import Path

    repo = Path(__file__).parent.parent
    doc = json.loads((repo / "BENCH_simulator.json").read_text())
    assert set(doc) <= KNOWN_SECTIONS
    with ResultsStore(tmp_path / "h.db") as store:
        assert store.ingest(doc).kind == "bench"


def test_committed_baseline_rows_are_native_and_floored():
    # repro-bench --full is the one writer of BENCH_simulator.json: one
    # row per pinned trace, each driven by the compiled loop and carrying
    # the one speedup floor it clears.
    from pathlib import Path

    repo = Path(__file__).parent.parent
    doc = json.loads((repo / "BENCH_simulator.json").read_text())
    assert doc["mode"] == "full"
    assert list(doc["drive"]) == [label for label, _ in
                                  bench_mod.drive_traces()]
    assert list(doc["oracle"]) == list(doc["drive"])
    for row in [*doc["drive"].values(), *doc["oracle"].values()]:
        assert row["strategy"] == "native"
        assert row["speedup_floor"] == bench_mod.SPEEDUP_FLOOR
        assert row["speedup"] >= row["speedup_floor"]
    assert set(doc["e2e"]) == {"scope", "parallel_fast_s"}
