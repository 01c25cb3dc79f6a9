"""``repro-results`` CLI: ingest/list/trend/gate/export round-trips."""

from __future__ import annotations

import json
from pathlib import Path

from repro.cli import main as umbrella_main
from repro.results.cli import results_main

from tests.test_results_store import bench_payload, serve_payload

REPO = Path(__file__).parent.parent


def _write(path, doc):
    path.write_text(json.dumps(doc, indent=2))
    return str(path)


def test_cli_ingest_list_trend_gate_export_roundtrip(tmp_path, capsys):
    store = str(tmp_path / "history.db")
    sim = _write(tmp_path / "sim.json", bench_payload())
    srv = _write(tmp_path / "srv.json", serve_payload())

    assert results_main(["ingest", store, sim, srv]) == 0
    out = capsys.readouterr().out
    assert "ingested" in out and "[bench]" in out and "[serve]" in out

    assert results_main(["list", store]) == 0
    out = capsys.readouterr().out
    assert "sim.json" in out and "srv.json" in out and "2 ingested" in out

    assert results_main(["trend", store, "--fail-empty"]) == 0
    out = capsys.readouterr().out
    assert "drive.psums/bad-fs/t4.speedup" in out and "server-line.throughput_vps" in out

    assert results_main(["gate", store]) == 0
    out = capsys.readouterr().out
    assert "results gate: PASS" in out

    export = tmp_path / "export.json"
    assert results_main(["export", store, str(export)]) == 0
    doc = json.loads(export.read_text())
    assert doc["runs"]["kind"] == ["bench", "serve"]


def test_cli_ingest_committed_baselines_round_trip(tmp_path, capsys):
    # The results-smoke CI job in miniature: committed artifacts must
    # ingest, trend non-empty, and gate clean on a fresh store.
    store = str(tmp_path / "smoke.db")
    assert results_main([
        "ingest", store,
        str(REPO / "BENCH_simulator.json"),
        str(REPO / "BENCH_serve.json"),
    ]) == 0
    capsys.readouterr()
    assert results_main(["trend", store, "--fail-empty"]) == 0
    assert "drive.psums/bad-fs/t4.speedup" in capsys.readouterr().out
    assert results_main(["gate", store]) == 0


def test_cli_ingest_dedups_and_reports_it(tmp_path, capsys):
    store = str(tmp_path / "h.db")
    sim = _write(tmp_path / "sim.json", bench_payload())
    assert results_main(["ingest", store, sim]) == 0
    capsys.readouterr()
    assert results_main(["ingest", store, sim]) == 0
    assert "deduped" in capsys.readouterr().out


def test_cli_gate_regression_exit_1(tmp_path, capsys):
    store = str(tmp_path / "h.db")
    good = _write(tmp_path / "good.json", bench_payload(fast=1_000_000))
    bad = _write(tmp_path / "bad.json", bench_payload(fast=100_000))
    assert results_main(["ingest", store, good, bad]) == 0
    capsys.readouterr()
    assert results_main(["gate", store]) == 1
    captured = capsys.readouterr()
    assert "results gate: FAIL" in captured.err


def test_cli_gate_writes_markdown_summary(tmp_path, capsys):
    store = str(tmp_path / "h.db")
    sim = _write(tmp_path / "sim.json", bench_payload())
    md = tmp_path / "summary.md"
    assert results_main(["ingest", store, sim]) == 0
    assert results_main(["gate", store, "--markdown", str(md)]) == 0
    text = md.read_text()
    assert text.startswith("**results gate: PASS**")


def test_cli_trend_markdown_and_output_file(tmp_path, capsys):
    store = str(tmp_path / "h.db")
    sim = _write(tmp_path / "sim.json", bench_payload())
    out = tmp_path / "trend.md"
    assert results_main(["ingest", store, sim]) == 0
    capsys.readouterr()
    assert results_main(["trend", store, "--markdown",
                         "--output", str(out)]) == 0
    assert out.read_text().startswith("| kind |")


def test_cli_trend_fail_empty_on_fresh_store(tmp_path, capsys):
    store = str(tmp_path / "empty.db")
    assert results_main(["trend", store, "--fail-empty"]) == 1
    assert "no metric rows" in capsys.readouterr().err


def test_cli_errors_exit_2(tmp_path, capsys):
    store = str(tmp_path / "h.db")
    bogus = _write(tmp_path / "bogus.json", {"mystery": 1})
    assert results_main(["ingest", store, bogus]) == 2
    assert "error:" in capsys.readouterr().err
    notjson = tmp_path / "notjson.txt"
    notjson.write_text("{nope")
    assert results_main(["ingest", store, str(notjson)]) == 2
    # Corrupt store file.
    corrupt = tmp_path / "corrupt.db"
    corrupt.write_bytes(b"garbage bytes, definitely not sqlite")
    assert results_main(["list", str(corrupt)]) == 2


def test_umbrella_dispatches_results(tmp_path, capsys):
    store = str(tmp_path / "h.db")
    sim = _write(tmp_path / "sim.json", bench_payload())
    assert umbrella_main(["results", "ingest", store, sim]) == 0
    assert "[bench]" in capsys.readouterr().out


def test_bench_cli_results_store_hook(tmp_path, capsys):
    # --input mode: the payload is ingested without re-running the grid.
    from repro.telemetry.bench import bench_main

    store = tmp_path / "h.db"
    cur = _write(tmp_path / "cur.json", bench_payload())
    assert bench_main(["--input", cur,
                       "--results-store", str(store)]) == 0
    assert "results:" in capsys.readouterr().out
    assert results_main(["list", str(store)]) == 0
    assert "1 ingested" in capsys.readouterr().out
