"""Tests for the command-line tools."""

import json

import pytest

from repro.cli import (
    analyze_main,
    experiment_main,
    main,
    perf_main,
)


class TestPerfList:
    def test_list_shows_workloads_and_events(self, capsys):
        assert perf_main(["list"]) == 0
        out = capsys.readouterr().out
        assert "pdot" in out
        assert "streamcluster" in out
        assert "Snoop_Response.HIT_M" in out


class TestPerfStat:
    def test_stat_mini_program(self, capsys):
        rc = perf_main(["stat", "psums", "-t", "3", "-n", "1500"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Instructions_Retired" in out
        assert "counting overhead" in out

    def test_stat_raw_counts(self, capsys):
        rc = perf_main(["stat", "psums", "-t", "3", "-n", "1500", "--raw"])
        assert rc == 0
        assert "raw count" in capsys.readouterr().out

    def test_stat_custom_events(self, capsys):
        rc = perf_main(["stat", "psums", "-t", "3", "-n", "1500",
                        "-e", "Snoop_Response.HIT_M,Instructions_Retired"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Snoop_Response.HIT_M" in out
        assert "DTLB" not in out

    def test_stat_suite_program(self, capsys):
        # argparse cannot take "-O2" as a separate token; the CLI accepts
        # the dashless form (or --opt=-O2)
        rc = perf_main(["stat", "blackscholes", "-t", "4",
                        "--input", "simsmall", "--opt", "O2"])
        assert rc == 0

    def test_unknown_workload_fails_cleanly(self, capsys):
        rc = perf_main(["stat", "nonesuch"])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_unknown_event_fails_cleanly(self, capsys):
        rc = perf_main(["stat", "psums", "-e", "Bogus_Event"])
        assert rc == 2

    def test_bad_mode_fails_cleanly(self, capsys):
        rc = perf_main(["stat", "psums", "-m", "awful"])
        assert rc == 2


class TestAnalyzeCLI:
    def test_good_run_exits_zero(self, capsys):
        rc = analyze_main(["psums", "-t", "4", "-m", "good", "-n", "2000"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "verdict: good" in out
        assert "clean" in out

    def test_bad_fs_run_exits_one_with_findings(self, capsys):
        rc = analyze_main(["psums", "-t", "4", "-m", "bad-fs",
                           "-n", "2000"])
        assert rc == 1
        out = capsys.readouterr().out
        assert "verdict: bad-fs" in out
        assert "FS001" in out
        assert "fix:" in out

    def test_json_output(self, capsys):
        rc = analyze_main(["psums", "-t", "4", "-m", "bad-fs",
                           "-n", "2000", "--json"])
        assert rc == 1
        d = json.loads(capsys.readouterr().out)
        assert d["report"]["verdict"] == "bad-fs"
        assert any(f["rule"] == "FS001" for f in d["findings"])

    def test_bad_ma_sequential(self, capsys):
        rc = analyze_main(["seq_matmul", "-t", "1", "-m", "bad-ma"])
        assert rc == 1
        assert "FS003" in capsys.readouterr().out

    def test_workload_required_without_crosscheck(self, capsys):
        with pytest.raises(SystemExit):
            analyze_main([])

    def test_unknown_workload_fails_cleanly(self, capsys):
        rc = analyze_main(["nonesuch"])
        assert rc == 2
        assert "error" in capsys.readouterr().err


class TestPredictCLI:
    def test_good_run_exits_zero(self, capsys):
        rc = analyze_main(["predict", "psums", "-t", "4", "-m", "good"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "predicted verdict: good" in out
        assert "no findings" in out

    def test_bad_fs_findings_with_objects(self, capsys):
        rc = analyze_main(["predict", "psums", "-t", "4", "-m", "bad-fs"])
        assert rc == 1
        out = capsys.readouterr().out
        assert "FS006" in out
        assert "psum[t0]" in out
        assert "id: " in out

    def test_json_format_stable_keys(self, capsys):
        rc = analyze_main(["predict", "psums", "-t", "4", "-m", "bad-fs",
                           "--format", "json"])
        assert rc == 1
        d = json.loads(capsys.readouterr().out)
        (case,) = d["cases"]
        assert case["verdict"] == "bad-fs"
        assert any(f["rule"] == "FS006" for f in d["findings"])
        # stable key order: re-serializing sorted must be a no-op
        raw = json.dumps(d, indent=2, sort_keys=True)
        assert json.loads(raw) == d

    def test_all_sweep_against_baseline(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        rc = analyze_main([
            "predict", "--all", "--baseline", "analysis-baseline.json",
            "--fail-on-new", "--output", str(out_path),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "0 new" in out
        doc = json.loads(out_path.read_text())
        assert doc["baseline_diff"]["clean"]
        assert doc["baseline_diff"]["counts"]["new"] == 0
        # clean only means no new findings: a change that silently drops
        # a committed FS005-FS008 finding must fail here too
        assert doc["baseline_diff"]["counts"]["fixed"] == 0
        assert doc["baseline_diff"]["counts"]["known"] == 8

    def test_fail_on_new_without_baseline_entry(self, capsys, tmp_path):
        empty = tmp_path / "empty.json"
        empty.write_text('{"version": 1, "findings": []}\n')
        rc = analyze_main(["predict", "--all", "--baseline", str(empty),
                           "--fail-on-new"])
        assert rc == 1
        assert "NEW" in capsys.readouterr().out

    def test_update_baseline_round_trip(self, capsys, tmp_path):
        base = tmp_path / "base.json"
        rc = analyze_main(["predict", "--all", "--baseline", str(base),
                           "--update-baseline"])
        assert rc == 0
        rc = analyze_main(["predict", "--all", "--baseline", str(base),
                           "--fail-on-new"])
        assert rc == 0

    def test_workload_required_without_all(self):
        with pytest.raises(SystemExit):
            analyze_main(["predict"])

    def test_unknown_workload_fails_cleanly(self, capsys):
        rc = analyze_main(["predict", "nonesuch"])
        assert rc == 2
        assert "error" in capsys.readouterr().err


class TestSymbolsCLI:
    def test_table_lists_objects(self, capsys):
        rc = analyze_main(["symbols", "psums", "-t", "4", "-m", "bad-fs"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Symbol table" in out
        assert "psum[t0]" in out

    def test_json_format(self, capsys):
        rc = analyze_main(["symbols", "psums", "-t", "4", "-m", "good",
                           "--format", "json"])
        assert rc == 0
        d = json.loads(capsys.readouterr().out)
        assert d["n_symbols"] == len(d["symbols"])
        assert any(s["name"] == "psum[t0]" for s in d["symbols"])

    def test_line_query_resolves_objects(self, capsys):
        rc = analyze_main(["symbols", "psums", "-t", "4", "-m", "bad-fs",
                           "--format", "json"])
        assert rc == 0
        d = json.loads(capsys.readouterr().out)
        line = next(s["lines"][0] for s in d["symbols"]
                    if s["name"] == "psum[t0]")
        rc = analyze_main(["symbols", "psums", "-t", "4", "-m", "bad-fs",
                           "--line", str(line)])
        assert rc == 0
        assert "psum[t0]" in capsys.readouterr().out

    def test_line_query_hex_and_empty(self, capsys):
        rc = analyze_main(["symbols", "psums", "-t", "4",
                           "--line", "0x1"])
        assert rc == 0
        assert "no named objects" in capsys.readouterr().out

    def test_suite_program_plan(self, capsys):
        rc = analyze_main(["symbols", "blackscholes", "-t", "4",
                           "--input", "simsmall", "--opt", "O1"])
        assert rc == 0
        assert "Symbol table" in capsys.readouterr().out


class TestUmbrellaMain:
    def test_no_args_prints_usage(self, capsys):
        assert main([]) == 2
        assert "usage: repro" in capsys.readouterr().out

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0

    def test_unknown_subcommand(self, capsys):
        assert main(["bogus"]) == 2
        assert "unknown subcommand" in capsys.readouterr().err

    def test_dispatches_to_analyze(self, capsys):
        rc = main(["analyze", "psums", "-t", "4", "-m", "good",
                   "-n", "2000"])
        assert rc == 0
        assert "verdict: good" in capsys.readouterr().out

    def test_dispatches_to_perf(self, capsys):
        assert main(["perf", "list"]) == 0
        assert "pdot" in capsys.readouterr().out

    def test_usage_lists_serve(self, capsys):
        main([])
        assert "serve" in capsys.readouterr().out

    def test_dispatches_to_serve(self, capsys):
        # ping against a dead port: dispatch works, command fails cleanly.
        rc = main(["serve", "ping", "--port", "1"])
        assert rc == 2
        assert "error" in capsys.readouterr().err


class TestServeCLI:
    @pytest.fixture
    def model_path(self, tmp_path):
        import numpy as np

        from repro.core.training import FEATURES
        from repro.ml.c45 import C45Classifier
        from repro.ml.dataset import Dataset
        from repro.ml.persistence import save_classifier

        rng = np.random.default_rng(11)
        X = rng.normal(size=(120, len(FEATURES)))
        y = ["bad-fs" if r[0] > 0 else "good" for r in X]
        clf = C45Classifier().fit(
            Dataset(X, y, [e.name for e in FEATURES])
        )
        path = tmp_path / "model.json"
        save_classifier(clf, path)
        return path

    def test_bench_smoke_writes_result(self, model_path, tmp_path, capsys):
        from repro.serve.cli import serve_main
        from repro.serve.loadgen import RUNGS

        out = tmp_path / "BENCH_serve.json"
        rc = serve_main([
            "bench", "--model", str(model_path), "--requests", "48",
            "--output", str(out),
        ])
        assert rc == 0
        assert "serve bench: PASS" in capsys.readouterr().out
        doc = json.loads(out.read_text())
        assert doc["bench"] == "serve-throughput"
        assert list(doc["rungs"]) == [r.name for r in RUNGS]
        for rung in RUNGS:
            row = doc["rungs"][rung.name]
            assert row["vectors"] == 48 * rung.scale
            assert row["completed"] == row["vectors"]
            assert row["shed"] == 0 and row["errors"] == 0
            assert row["batch"] == rung.batch
            assert row["workers"] == rung.workers
        assert doc["predict_batch_vectors_per_s"] > 0

    def test_bench_rejects_negative_requests(self, capsys):
        from repro.serve.cli import serve_main

        with pytest.raises(SystemExit) as exc:
            serve_main(["bench", "--requests", "-5"])
        assert exc.value.code == 2
        assert "must be >= 0" in capsys.readouterr().err

    def test_bench_has_no_floor_knobs(self, capsys):
        # Performance verdicts come from repro-results gate; the bench
        # keeps only its correctness checks (zero shed, zero errors).
        from repro.serve.cli import serve_main

        with pytest.raises(SystemExit) as exc:
            serve_main(["bench", "--help"])
        assert exc.value.code == 0
        text = capsys.readouterr().out
        for flag in ("--min-rps", "--min-scale-vps", "--min-speedup",
                     "--max-shed", "--scale", "--window", "--connections"):
            assert flag not in text

    def test_classify_against_running_server(self, model_path, capsys):
        from repro.serve.cli import serve_main
        from repro.serve.server import ServerThread

        with ServerThread(str(model_path), port=0) as (host, port):
            rc = serve_main([
                "classify", "psums", "-t", "4", "-m", "bad-fs",
                "-n", "2000", "--host", host, "--port", str(port),
            ])
        out = capsys.readouterr().out
        assert rc in (0, 1)  # verdict-dependent exit, not a crash
        assert "->" in out

    def test_classify_windowed(self, model_path, capsys):
        from repro.serve.cli import serve_main
        from repro.serve.server import ServerThread

        with ServerThread(str(model_path), port=0) as (host, port):
            rc = serve_main([
                "classify", "psums", "-t", "4", "-m", "good",
                "-n", "2000", "--windows", "4",
                "--host", host, "--port", str(port),
            ])
        out = capsys.readouterr().out
        assert rc in (0, 1)
        assert out.count("window") >= 4

    def test_ping_dead_server_fails(self, capsys):
        from repro.serve.cli import serve_main

        assert serve_main(["ping", "--port", "1"]) == 2
        assert "error" in capsys.readouterr().err


class TestExperimentCLI:
    def test_no_args_lists_experiments(self, capsys):
        assert experiment_main([]) == 0
        out = capsys.readouterr().out
        assert "table5" in out
        assert "figure2" in out

    def test_run_table1(self, capsys):
        assert experiment_main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "Method" in out

    def test_unknown_experiment_fails(self, capsys):
        assert experiment_main(["tableX"]) == 2
