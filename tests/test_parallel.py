"""Determinism of the parallel execution engine.

The engine's contract is that any ``jobs`` value produces *bit-identical*
artifacts: workers only simulate, the parent measures and classifies
serially in case order, and all randomness comes from blake2b-keyed streams
that do not depend on the process doing the drawing.  These tests run the
same grids serially and through a multi-process engine and demand equality
of every float.
"""

from __future__ import annotations

import pytest

from repro.baselines.shadow import ShadowMemoryDetector
from repro.core.detector import FalseSharingDetector
from repro.core.lab import Lab
from repro.core.training import (
    PlanRow,
    ScreeningReport,
    TrainingData,
    collect_plan,
)
from repro.errors import ReproError
from repro.parallel import (
    ExecutionEngine,
    default_jobs,
    resolve_target,
    set_default_jobs,
)
from repro.suites import get_program
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

    def test_prefetch_skips_unknown_workloads(self):
        class Adhoc:
            name = "not-in-any-registry"

            def cache_key(self, cfg):
                return ("x",)

        lab = Lab(disk_cache=None)
        n = ExecutionEngine(2).prefetch_simulations(
            lab, [(Adhoc(), RunConfig(threads=2, mode=Mode.GOOD, size=8))]
        )
        assert n == 0 and lab.cache_size() == 0


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
    @pytest.mark.parametrize("fast", ["fsat", "ref", 0])
    def test_shadow_batch_fast_must_be_a_bool(self, fast):
        p = get_program("linear_regression")
        case = p.verification_cases()[0]
        with pytest.raises(ReproError, match="fast must be a bool"):
            ExecutionEngine(1).shadow_batch([(p.name, case)], chunk=4,
                                            max_threads=8, fast=fast)

    def test_run_many_matches_serial(self):
        p = get_program("linear_regression")
        cases = p.verification_cases()[:3]
        det = ShadowMemoryDetector()
        serial = [det.run(p.trace(c)) for c in cases]
        batch = det.run_many([(p.name, c) for c in cases],
                             engine=ExecutionEngine(2))
        for a, b in zip(serial, batch):
            assert (a.fs_misses, a.ts_misses, a.cold_misses,
                    a.instructions, a.nthreads) == \
                   (b.fs_misses, b.ts_misses, b.cold_misses,
                    b.instructions, b.nthreads)
