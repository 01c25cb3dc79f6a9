"""Tests for the cross-detector disagreement harness."""

import json
from types import SimpleNamespace

import pytest

from repro.analysis.crosscheck import (
    CaseRecord,
    CrossChecker,
    CrossCheckReport,
    _case_label,
    canonical_case,
    default_grid,
)
from repro.experiments import exp_crosscheck
from repro.experiments.context import PipelineContext
from repro.results.schema import classify_payload, extract_metrics
from repro.suites import get_program
from repro.telemetry.core import TELEMETRY
from repro.workloads.base import Mode, RunConfig
from repro.workloads.registry import get_workload

from tests.test_core_detector import fitted  # noqa: F401  (reuse fixture)


def oracle_context(detector, jobs=1):
    """What :class:`CrossChecker` reads of a pipeline context, around an
    already-fitted detector (so nothing is trained)."""
    ctx = PipelineContext(lab=detector.lab, jobs=jobs)
    return SimpleNamespace(detector=detector, engine=ctx.engine,
                           shadow=ctx.shadow, shadow_cache=ctx.shadow_cache,
                           shadow_reports=ctx.shadow_reports)


def rec(**kw):
    base = dict(workload="w", case="t2-good-n100-random", static_label="good",
                static_significance=0.0, shadow_fs=False,
                shadow_rate=0.0, tree_label="good")
    base.update(kw)
    return CaseRecord(**base)


class TestDefaultGrid:
    def test_covers_all_minis_modes_and_threads(self):
        grid = default_grid(threads=(2, 6))
        names = {w.name for w, _ in grid}
        assert len(names) == 12
        # every mt case appears at both thread counts
        mt = [(w.name, cfg.mode, cfg.threads) for w, cfg in grid
              if cfg.threads > 1]
        assert {t for _, _, t in mt} == {2, 6}
        # sequential programs run single-threaded
        assert all(cfg.threads == 1 for w, cfg in grid
                   if Mode.BAD_MA in w.modes and Mode.BAD_FS not in w.modes)

    def test_thread_bounds_enforced(self):
        with pytest.raises(ValueError):
            default_grid(threads=(2, 9))
        with pytest.raises(ValueError):
            default_grid(threads=(0,))


class TestCaseRecord:
    def test_fs_flags(self):
        r = rec(static_label="bad-fs", shadow_fs=True, tree_label="bad-fs")
        assert r.static_fs and r.tree_fs and r.unanimous_fs

    def test_disagreement_flag(self):
        r = rec(static_label="bad-fs")
        assert not r.unanimous_fs

    def test_non_fs_unanimity(self):
        # bad-ma everywhere is still unanimous on the fs axis
        r = rec(static_label="bad-ma", tree_label="bad-ma")
        assert r.unanimous_fs

    def test_case_id_and_dict(self):
        cfg = RunConfig(threads=4, mode="bad-fs", size=10)
        r = rec(workload="psums", case=_case_label(cfg))
        assert r.case_id == "psums[t4-bad-fs-n10-random]"
        assert r.to_dict()["shadow"] == "no-fs"
        p = get_program("fluidanimate")
        assert _case_label(canonical_case(p)) == "simsmall-O1-t8"

    def test_line_sets(self):
        r = rec(predict_label="bad-fs", predicted_lines=[1, 2, 5],
                oracle_lines=[2, 5, 9])
        assert (r.matched, r.predicted_only, r.oracle_only) == \
            ([2, 5], [1], [9])
        assert r.precision == r.recall == pytest.approx(2 / 3)
        assert r.to_dict()["lines"]["matched"] == 2


class TestCrossCheckReport:
    @pytest.fixture
    def report(self):
        return CrossCheckReport([
            rec(),
            rec(workload="x", static_label="bad-fs", shadow_fs=True,
                shadow_rate=0.01, tree_label="bad-fs"),
            rec(workload="y", static_label="bad-fs",
                static_significance=0.5),
        ])

    def test_confusion_counts(self, report):
        conf = report.confusion()
        assert conf[("good", "no-fs", "good")] == 1
        assert conf[("bad-fs", "fs", "bad-fs")] == 1
        assert sum(conf.values()) == 3

    def test_pairwise_agreement(self, report):
        agree = report.pairwise_fs_agreement()
        assert agree["static-vs-shadow"] == pytest.approx(2 / 3)
        assert agree["tree-vs-shadow"] == 1.0

    def test_disagreements(self, report):
        assert [r.workload for r in report.disagreements()] == ["y"]

    def test_render(self, report):
        out = report.render()
        assert "confusion matrix" in out
        assert "Disagreements" in out
        assert "y[t2-good-n100-random]" in out

    def test_render_unanimous(self):
        out = CrossCheckReport([rec()]).render()
        assert "no disagreements" in out

    def test_to_json(self, report):
        d = json.loads(report.to_json())
        assert len(d["cases"]) == 3
        assert d["disagreements"] == ["y[t2-good-n100-random]"]

    def test_empty_report(self):
        r = CrossCheckReport([])
        assert r.pairwise_fs_agreement() == {}
        assert r.disagreements() == []


class TestCrossChecker:
    @pytest.fixture(scope="class")
    def result(self, fitted):  # noqa: F811
        psums = get_workload("psums")
        seq_w = get_workload("seq_write")
        grid = [
            (psums, RunConfig(threads=2, mode="good", size=2000)),
            (psums, RunConfig(threads=2, mode="bad-fs", size=2000)),
            (seq_w, RunConfig(threads=1, mode="good", size=20_000)),
        ]
        return CrossChecker(oracle_context(fitted)).run(grid)

    def test_one_record_per_case(self, result):
        assert len(result.records) == 3
        assert [r.workload for r in result.records] == ["psums", "psums",
                                                        "seq_write"]

    def test_three_verdicts_per_case(self, result):
        for r in result.records:
            assert r.static_label in ("good", "bad-fs", "bad-ma")
            assert r.tree_label in ("good", "bad-fs", "bad-ma")
            assert r.shadow_rate >= 0.0

    def test_bad_fs_case_unanimous(self, result):
        r = result.records[1]
        assert r.case == "t2-bad-fs-n2000-random"
        assert r.static_fs and r.shadow_fs and r.tree_fs

    def test_good_cases_unanimous(self, result):
        for r in (result.records[0], result.records[2]):
            assert not (r.static_fs or r.shadow_fs or r.tree_fs)

    def test_line_sets_on_planned_cases(self, result):
        good, bad, _ = result.records
        assert bad.predict_label == "bad-fs"
        assert bad.oracle_lines and bad.matched == bad.predicted_lines
        assert not good.predicted_lines and not good.oracle_lines

    def test_second_run_reads_the_oracle_cache(self, fitted):  # noqa: F811
        psums = get_workload("psums")
        grid = [(psums, RunConfig(threads=t, mode="bad-fs", size=1500))
                for t in (2, 3)]
        checker = CrossChecker(oracle_context(fitted, jobs=2))
        TELEMETRY.enable(reset=True)
        try:
            first = checker.run(grid)
            assert TELEMETRY.counters["shadow.prefetch.dispatched"] == 2
            second = checker.run(grid)
            counters = dict(TELEMETRY.counters)
        finally:
            TELEMETRY.disable()
            TELEMETRY.reset()
        # The second sweep dispatched no oracle task and computed none:
        # every report came from the context's cache, line sets included.
        assert counters["shadow.prefetch.dispatched"] == 2
        assert counters.get("shadow.cache.miss", 0) == 0
        assert counters["shadow.cache.hit"] == 4
        assert second.to_json() == first.to_json()


class TestPayloadContract:
    """Both experiments' ``data`` still classify and trend as before."""

    @pytest.fixture(scope="class")
    def ctx(self, fitted):  # noqa: F811
        return oracle_context(fitted)

    @pytest.fixture(autouse=True)
    def small_grids(self, monkeypatch):
        psums = get_workload("psums")
        grid = [(psums, RunConfig(threads=t, mode="bad-fs", size=2000))
                for t in (2, 4)]
        fluid = get_program("fluidanimate")
        monkeypatch.setattr(exp_crosscheck, "default_grid",
                            lambda threads=(2, 6): grid[:len(threads)])
        monkeypatch.setattr(exp_crosscheck, "suite_grid",
                            lambda: [(fluid, canonical_case(fluid))])

    def test_crosscheck_payload(self, ctx):
        data = exp_crosscheck.crosscheck(ctx).data
        assert classify_payload(data) == "crosscheck"
        names = [m.name for m in extract_metrics("crosscheck", data)]
        assert names == [f"agreement.{p}" for p in (
            "predict-vs-shadow", "predict-vs-static", "predict-vs-tree",
            "static-vs-shadow", "static-vs-tree", "tree-vs-shadow")] + [
            "disagreements"]

    def test_validation_payload(self, ctx):
        data = exp_crosscheck.predict_validation(ctx).data
        assert classify_payload(data) == "validate"
        names = [m.name for m in extract_metrics("validate", data)]
        assert names == [f"{sweep}.{key}" for sweep in ("registry", "suite")
                         for key in ("line_precision", "line_recall",
                                     "verdict_agreement", "disagreements")]
        assert data["suite"]["n_cases"] == 1
