"""Determinism of the parallel execution engine.

The engine's contract is that any ``jobs`` value produces *bit-identical*
artifacts: workers only simulate and shadow, the parent measures and
classifies serially in case order, and all randomness comes from
blake2b-keyed streams that do not depend on the process doing the drawing.
These tests run the same grids serially and through a multi-process engine
and demand equality of every float.
"""

from __future__ import annotations

import pytest

from repro.core.detector import FalseSharingDetector
from repro.core.lab import Lab
from repro.core.training import (
    PlanRow,
    ScreeningReport,
    TrainingData,
    collect_plan,
)
from repro.errors import ReproError
from repro.experiments.context import PipelineContext
from repro.parallel import (
    ExecutionEngine,
    default_jobs,
    resolve_target,
    set_default_jobs,
)
from repro.suites import get_program
from repro.telemetry.core import TELEMETRY
from repro.workloads.base import Mode, RunConfig
from repro.workloads.registry import get_workload

MINI_PLAN = [
    PlanRow("psums", Mode.GOOD, (1_500, 3_000), (3, 6), ("random",), 2),
    PlanRow("psums", Mode.BAD_FS, (1_500, 3_000), (3, 6), ("random",), 2),
    PlanRow("seq_read", Mode.BAD_MA, (32_768,), (1,),
            ("random", "stride8"), 1),
]

CASES = [
    RunConfig(threads=t, mode=m, size=1_500)
    for t in (3, 4) for m in (Mode.GOOD, Mode.BAD_FS)
]


def _double(x: int) -> int:
    """Module-level so worker processes can unpickle it by reference."""
    return x * 2


def _instances_equal(a, b):
    assert len(a) == len(b)
    for x, y in zip(a, b):
        assert x.label == y.label
        assert list(x.features) == list(y.features)
        assert x.meta == y.meta


class TestEngine:
    def test_jobs_default_and_override(self):
        assert ExecutionEngine(3).jobs == 3
        try:
            set_default_jobs(5)
            assert default_jobs() == 5
            assert ExecutionEngine().jobs == 5
        finally:
            set_default_jobs(None)
        assert default_jobs() >= 1

    def test_invalid_jobs_rejected(self):
        with pytest.raises(ReproError):
            ExecutionEngine(0)
        with pytest.raises(ReproError):
            set_default_jobs(0)

    def test_chunksize_default_and_override(self):
        # The 4x rule: enough chunks for load balance, few enough that
        # thousands of small tasks do not pay per-task IPC.
        eng = ExecutionEngine(4)
        assert eng.chunksize is None
        assert eng._chunksize(1000, 4) == 62
        assert eng._chunksize(3, 4) == 1
        forced = ExecutionEngine(4, chunksize=7)
        assert forced.chunksize == 7
        assert forced._chunksize(1000, 4) == 7
        with pytest.raises(ReproError):
            ExecutionEngine(2, chunksize=0)

    @pytest.mark.parametrize("chunksize", [1, 3, 64])
    def test_map_preserves_order_for_any_chunksize(self, chunksize):
        # Chunked dispatch must never reorder results relative to tasks.
        tasks = list(range(23))
        out = ExecutionEngine(2, chunksize=chunksize).map(_double, tasks)
        assert out == [t * 2 for t in tasks]

    def test_resolve_target_both_kinds(self):
        assert resolve_target("psums") is get_workload("psums")
        assert (resolve_target("linear_regression")
                is get_program("linear_regression"))
        with pytest.raises(ReproError):
            resolve_target("no-such-program")

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_prefetch_skips_unknown_workloads(self, jobs):
        class Adhoc:
            name = "not-in-any-registry"

            def cache_key(self, cfg):
                return ("x",)

        ctx = PipelineContext(lab=Lab(disk_cache=None), jobs=jobs)
        pairs = [(Adhoc(), RunConfig(threads=2, mode=Mode.GOOD, size=8))]
        n = ctx.engine.prefetch(ctx.lab, pairs, shadowed=pairs,
                                shadow_cache=ctx.shadow_cache,
                                oracle=ctx.shadow)
        assert n == 0 and ctx.lab.cache_size() == 0
        assert len(ctx.shadow_cache) == 0


class TestTrainingDeterminism:
    def test_collect_plan_parallel_identical(self):
        serial = collect_plan(Lab(disk_cache=None), MINI_PLAN, "A")
        parallel = collect_plan(Lab(disk_cache=None), MINI_PLAN, "A",
                                engine=ExecutionEngine(2))
        _instances_equal(serial, parallel)

    def test_collect_plan_with_interference_identical(self):
        serial = collect_plan(Lab(disk_cache=None), MINI_PLAN[:1], "B",
                              interference_p=0.4)
        parallel = collect_plan(Lab(disk_cache=None), MINI_PLAN[:1], "B",
                                interference_p=0.4,
                                engine=ExecutionEngine(2))
        _instances_equal(serial, parallel)


class TestClassifyDeterminism:
    @pytest.fixture(scope="class")
    def trained(self):
        lab = Lab(disk_cache=None)
        inst = collect_plan(lab, MINI_PLAN, "A")
        td = TrainingData(inst, [], inst, [],
                          ScreeningReport(inst, [], {}),
                          ScreeningReport([], [], {}))
        det = FalseSharingDetector(lab)
        det.fit(training=td)
        return det

    def test_classify_cases_jobs4_identical(self, trained):
        w = get_workload("psums")
        serial_det = FalseSharingDetector(Lab(disk_cache=None))
        serial_det.classifier = trained.classifier
        parallel_det = FalseSharingDetector(Lab(disk_cache=None))
        parallel_det.classifier = trained.classifier

        serial = serial_det.classify_cases(w, CASES)
        parallel = parallel_det.classify_cases(w, CASES, jobs=4)
        assert [r.label for r in serial] == [r.label for r in parallel]
        assert [r.seconds for r in serial] == [r.seconds for r in parallel]
        assert [r.meta for r in serial] == [r.meta for r in parallel]


class TestShadowDeterminism:
    def test_context_oracle_fanout_matches_serial(self):
        p = get_program("linear_regression")
        pairs = [(p, c) for c in p.verification_cases()[:3]]
        serial = PipelineContext(lab=Lab(disk_cache=None), jobs=1)
        parallel = PipelineContext(lab=Lab(disk_cache=None), jobs=2)
        a = serial.shadow_reports(pairs)
        b = parallel.shadow_reports(pairs)
        assert a == b
        assert all(isinstance(r.per_line, dict) for r in a)
        assert any(r.per_line for r in a)


class TestOneCaseVisit:
    """Classification and verification visit each suite case once: one
    case task builds its trace for both the simulator and the oracle."""

    PROGRAM = "reverse_index"

    @pytest.fixture(scope="class")
    def classifier(self):
        lab = Lab(disk_cache=None)
        inst = collect_plan(lab, MINI_PLAN, "A")
        det = FalseSharingDetector(lab)
        det.fit(training=TrainingData(inst, [], inst, [],
                                      ScreeningReport(inst, [], {}),
                                      ScreeningReport([], [], {})))
        return det.classifier

    def _context(self, classifier, jobs):
        ctx = PipelineContext(lab=Lab(disk_cache=None), jobs=jobs)
        ctx._detector = FalseSharingDetector(ctx.lab)
        ctx._detector.classifier = classifier
        return ctx

    def _verify(self, ctx):
        TELEMETRY.enable(reset=True)
        try:
            classified = ctx.classify_program(self.PROGRAM)
            verified = ctx.verify_program(self.PROGRAM)
            counters = dict(TELEMETRY.counters)
            spans = {s.name for s in TELEMETRY.spans}
        finally:
            TELEMETRY.disable()
            TELEMETRY.reset()
        return classified, verified, counters, spans

    @pytest.fixture(scope="class")
    def runs(self, classifier):
        out = {}
        for jobs in (1, 2):
            ctx = self._context(classifier, jobs)
            out[jobs] = (ctx,) + self._verify(ctx)
        return out

    def test_cold_visit_builds_each_trace_once(self, runs):
        program = get_program(self.PROGRAM)
        ctx, _, verified, counters, _ = runs[1]
        assert counters["suites.traces"] == len(program.cases())
        assert counters["engine.tasks"] == len(program.cases())
        assert (counters["shadow.prefetch.dispatched"]
                == len(program.verification_cases()) == verified.cases)
        assert counters.get("shadow.cache.miss", 0) == 0

    def test_jobs_do_not_change_results_or_cache_entries(self, runs):
        serial, parallel = runs[1], runs[2]
        assert serial[1] == parallel[1]      # ClassifiedProgram
        assert serial[2] == parallel[2]      # VerifiedProgram
        assert serial[0].lab.sim_cache._entries == \
            parallel[0].lab.sim_cache._entries
        assert serial[0].shadow_cache._entries == \
            parallel[0].shadow_cache._entries
        assert len(serial[0].shadow_cache) == serial[2].cases

    def test_warm_simulations_run_only_oracle_halves(self, classifier):
        program = get_program(self.PROGRAM)
        ctx = self._context(classifier, 1)
        ctx.engine.prefetch(ctx.lab, [(program, c) for c in program.cases()])
        _, verified, counters, spans = self._verify(ctx)
        n = len(program.verification_cases())
        assert counters.get("sim.cache.miss", 0) == 0
        assert "sim.drive" not in spans
        assert counters["suites.traces"] == counters["engine.tasks"] == n
        assert counters["shadow.prefetch.dispatched"] == n == verified.cases
