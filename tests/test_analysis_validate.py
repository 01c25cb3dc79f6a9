"""Tests for the line-level half of the cross-detector harness: predicted
false-shared lines against the shadow oracle's per-line attribution."""

import pytest

from repro.analysis.crosscheck import (
    MIN_ORACLE_MISSES,
    CrossChecker,
    canonical_case,
    default_grid,
    suite_grid,
)
from repro.baselines.shadow import MAX_THREADS
from repro.parallel import ExecutionEngine
from repro.suites import all_programs
from repro.workloads.base import RunConfig
from repro.workloads.registry import get_workload

from tests.test_core_detector import fitted  # noqa: F401  (reuse fixture)


@pytest.fixture(scope="module")
def checker(fitted):  # noqa: F811
    return CrossChecker(fitted, engine=ExecutionEngine(1))


def small_grid(names=("psums", "false1", "seq_rmw")):
    grid = []
    for name in names:
        w = get_workload(name)
        t = 4 if w.kind == "mt" else 1
        for mode in sorted(w.modes, key=lambda m: m.value):
            grid.append((w, RunConfig(threads=t, mode=mode,
                                      size=w.train_sizes[0],
                                      pattern="random")))
    return grid


class TestGrids:
    def test_t4_grid_covers_every_mode(self):
        grid = default_grid(threads=(4,))
        seen = {(w.name, cfg.mode.value) for w, cfg in grid}
        w = get_workload("psums")
        for mode in w.modes:
            assert ("psums", mode.value) in seen

    def test_t4_grid_seq_single_threaded(self):
        for w, cfg in default_grid(threads=(4,)):
            if w.kind == "seq":
                assert cfg.threads == 1

    def test_canonical_case_respects_oracle_cap(self):
        for p in all_programs():
            case = canonical_case(p)
            assert case.threads <= MAX_THREADS
            assert case.input_set == p.inputs[0]
            assert case.opt == p.opts[0]

    def test_suite_grid_is_full_suite(self):
        assert len(suite_grid()) == len(all_programs())


class TestRegistryValidation:
    @pytest.fixture(scope="class")
    def report(self, checker):
        return checker.run(small_grid())

    def test_perfect_line_metrics_on_subset(self, report):
        assert report.line_precision == 1.0
        assert report.line_recall == 1.0

    def test_verdict_agreement(self, report):
        assert report.verdict_agreement == 1.0

    def test_unambiguous_cases_all_agree(self, report):
        agree, total = report.unambiguous_agreement()
        assert total >= 1
        assert agree == total

    def test_all_disagreements_explained(self, report):
        assert report.all_explained()

    def test_case_surface(self, report):
        bad = [r for r in report.records if "-bad-fs-" in r.case]
        assert bad
        for r in bad:
            assert r.predict_label == "bad-fs"
            assert r.shadow_fs
            assert r.matched  # oracle attributes misses to predicted lines

    def test_render_and_dict(self, report):
        out = report.render()
        assert "precision" in out and "recall" in out
        d = report.to_dict()
        assert d["n_cases"] == len(report.records)
        assert d["line_precision"] == 1.0
        assert d["unambiguous_agreement"]["agree"] == \
            d["unambiguous_agreement"]["total"]


class TestFullSweeps:
    """The whole registry and the 19-program suite, pinned to their
    summary figures: a change to either front-end or the shared core that
    moves a single line-level call shows up here."""

    KEYS = ("n_cases", "line_precision", "line_recall", "verdict_agreement",
            "unambiguous_agreement", "all_disagreements_explained")

    def summary(self, report):
        d = report.to_dict()
        return {k: d[k] for k in self.KEYS}

    def test_registry_summary(self, checker):
        assert self.summary(checker.run(default_grid(threads=(4,)))) == {
            "n_cases": 29,
            "line_precision": 1.0,
            "line_recall": 1.0,
            "verdict_agreement": 1.0,
            "unambiguous_agreement": {"agree": 29, "total": 29},
            "all_disagreements_explained": True,
        }

    def test_suite_summary(self, checker):
        assert self.summary(checker.run(suite_grid())) == {
            "n_cases": 19,
            "line_precision": 0.7894736842105263,
            "line_recall": 1.0,
            "verdict_agreement": 1.0,
            "unambiguous_agreement": {"agree": 18, "total": 18},
            "all_disagreements_explained": True,
        }


class TestExplanations:
    def test_oracle_floor_is_positive(self):
        assert MIN_ORACLE_MISSES >= 1

    def test_suite_case_explained(self, checker):
        # fluidanimate's boundary lines realize as hand-offs: predicted
        # contention stays below significance, and the harness must
        # explain (not just count) the line-level gap.
        (pair,) = [(p, canonical_case(p)) for p in all_programs()
                   if p.name == "fluidanimate"]
        report = checker.run([pair])
        (case,) = report.records
        assert case.recall == 1.0
        assert case.predict_agrees
        assert not case.unexplained
        if case.predicted_only:
            assert case.explanations
