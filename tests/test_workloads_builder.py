"""Tests for the declarative workload builder."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.memory.layout import line_of
from repro.workloads.base import RunConfig
from repro.workloads.builder import WorkloadBuilder
from repro.workloads.builders import interleave, loop_body, rmw_cols



def simple(name="w", **kw):
    b = WorkloadBuilder(name)
    b.stream(elements=8_000)
    return b


def _interleave_by_hand(loads, blocks):
    """The per-iteration loop :func:`interleave` vectorizes."""
    addrs, writes, taken = [], [], [0] * len(blocks)
    for i in range(len(loads[0])):
        for col in loads:
            addrs.append(int(col[i]))
            writes.append(False)
        for b, (mask, cols) in enumerate(blocks):
            if not mask[i]:
                continue
            for addr, is_write in cols:
                addrs.append(int(addr[taken[b]] if np.ndim(addr) else addr))
                writes.append(is_write)
            taken[b] += 1
    return addrs, writes


class TestInterleave:
    def test_matches_the_iteration_loop(self):
        rng = np.random.default_rng(7)
        n = 200
        loads = [rng.integers(0, 1 << 20, size=n) for _ in range(2)]
        gather = rng.random(n) < 0.3
        acc = rng.random(n) < 0.5
        blocks = [
            (gather, [(rng.integers(0, 1 << 20, size=int(gather.sum())),
                       False)]),
            (acc, rmw_cols(4096, fields=3, field_size=4)),
            (np.zeros(n, bool), rmw_cols(8192)),
        ]
        addrs, writes = interleave(loads, blocks)
        want_a, want_w = _interleave_by_hand(loads, blocks)
        assert addrs.tolist() == want_a
        assert writes.tolist() == want_w

    def test_fixed_body_equals_loop_body(self):
        loads = [np.arange(50) * 8, np.arange(50) * 8 + 4096]
        got = interleave(loads, [(np.ones(50, bool), rmw_cols(64))])
        want = loop_body(loads, 64)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))

    def test_rmw_cols_is_load_then_store_per_field(self):
        assert rmw_cols(100, fields=2, field_size=4) == [
            (100, False), (100, True), (104, False), (104, True)]


class TestBuilderValidation:
    def test_needs_name(self):
        with pytest.raises(ConfigError):
            WorkloadBuilder("")

    def test_needs_stream(self):
        with pytest.raises(ConfigError):
            WorkloadBuilder("w").build()

    def test_parameter_validation(self):
        b = WorkloadBuilder("w")
        with pytest.raises(ConfigError):
            b.stream(elements=0)
        with pytest.raises(ConfigError):
            b.accumulator(fields=0)
        with pytest.raises(ConfigError):
            b.gather(table_bytes=8, every=1)
        with pytest.raises(ConfigError):
            b.sync(every=0)
        with pytest.raises(ConfigError):
            b.instructions_per_access(0.5)
        with pytest.raises(ConfigError):
            b.stack_traffic(every=-1)

    def test_fluent_chaining(self):
        w = (WorkloadBuilder("chain")
             .stream(elements=4_000)
             .accumulator(fields=2, packed=True)
             .gather(table_bytes=4_096, every=4)
             .sync(every=1_024)
             .stack_traffic(every=1)
             .instructions_per_access(3.5)
             .build())
        assert w.name == "chain"


class TestTraceGeneration:
    def test_all_modes_generate(self):
        w = simple().accumulator(packed=True).build()
        for mode in ("good", "bad-fs", "bad-ma"):
            tr = w.trace(RunConfig(threads=4, mode=mode, size=8_000))
            assert tr.nthreads == 4
            assert tr.total_accesses > 8_000

    def test_same_computation_across_modes(self):
        w = simple().accumulator(packed=True).build()
        good = w.trace(RunConfig(threads=4, mode="good", size=8_000))
        bad = w.trace(RunConfig(threads=4, mode="bad-fs", size=8_000))
        assert good.total_accesses == bad.total_accesses
        assert good.total_instructions == bad.total_instructions

    def test_packed_accumulator_shares_lines_only_in_bad_fs(self):
        w = simple().accumulator(packed=True, field_size=8).build()

        def hot_shared(mode):
            tr = w.trace(RunConfig(threads=4, mode=mode, size=8_000))
            def hot(tid):
                t = tr.threads[tid]
                lines, counts = np.unique(
                    line_of(t.addrs[t.is_write]), return_counts=True)
                return set(lines[counts > 100].tolist())
            return bool(hot(0) & hot(1))

        assert hot_shared("bad-fs")
        assert not hot_shared("good")

    def test_unpacked_accumulator_never_shares(self):
        w = simple().accumulator(packed=False).build()
        tr = w.trace(RunConfig(threads=4, mode="bad-fs", size=8_000))
        def hot(tid):
            t = tr.threads[tid]
            lines, counts = np.unique(line_of(t.addrs[t.is_write]),
                                      return_counts=True)
            return set(lines[counts > 100].tolist())
        assert not (hot(0) & hot(1))

    def test_bad_ma_scrambles_stream(self):
        w = simple().build()
        good = w.trace(RunConfig(threads=2, mode="good", size=8_000))
        bad = w.trace(RunConfig(threads=2, mode="bad-ma", size=8_000,
                                pattern="random"))
        assert (good.threads[0].addrs != bad.threads[0].addrs).any()

    def test_shared_gather_table_overlaps(self):
        w = simple().gather(table_bytes=16_384, every=2, shared=True).build()
        tr = w.trace(RunConfig(threads=2, mode="good", size=8_000))
        r0 = set(line_of(tr.threads[0].addrs).tolist())
        r1 = set(line_of(tr.threads[1].addrs).tolist())
        assert len(r0 & r1) > 30


class TestEndToEnd:
    def test_detector_flags_built_workload(self):
        """A built workload with a packed accumulator is detected bad-fs by
        a detector trained only on the stock mini-programs."""
        from tests.test_core_detector import MINI_PLAN_A, MINI_PLAN_B
        from repro.core.detector import FalseSharingDetector
        from repro.core.lab import Lab
        from repro.core.training import (ScreeningReport, TrainingData,
                                         collect_plan)

        lab = Lab(disk_cache=None)
        a = collect_plan(lab, MINI_PLAN_A, "A")
        b = collect_plan(lab, MINI_PLAN_B, "B")
        td = TrainingData(a, b, a, b, ScreeningReport(a, [], {}),
                          ScreeningReport(b, [], {}))
        det = FalseSharingDetector(lab).fit(training=td)

        w = (WorkloadBuilder("user_pool")
             .stream(elements=40_000)
             .accumulator(fields=2, packed=True, every=1)
             .build())
        bad = det.classify(w, RunConfig(threads=6, mode="bad-fs",
                                        size=40_000))
        good = det.classify(w, RunConfig(threads=6, mode="good",
                                         size=40_000))
        assert bad.label == "bad-fs"
        assert good.label == "good"
        assert bad.seconds > good.seconds
