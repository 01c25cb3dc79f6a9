"""Tests for the declarative workload builder."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.memory.layout import line_of
from repro.workloads.base import RunConfig
from repro.workloads.builder import WorkloadBuilder
from repro.workloads.builders import (
    interleave,
    rmw_cols,
    sync_count,
    with_sync,
)
from repro.workloads.plan import PlanBuilder


def simple(name="w", **kw):
    b = WorkloadBuilder(name)
    b.stream(elements=8_000)
    return b


def _col(addr, k):
    return int(addr[k] if np.ndim(addr) else addr)


def _interleave_by_hand(cols, blocks, n):
    """The per-iteration loop :func:`interleave` vectorizes."""
    addrs, writes, taken = [], [], [0] * len(blocks)
    for i in range(n):
        for addr, is_write in cols:
            addrs.append(_col(addr, i))
            writes.append(is_write)
        for b, (mask, bcols) in enumerate(blocks):
            if not mask[i]:
                continue
            for addr, is_write in bcols:
                addrs.append(_col(addr, taken[b]))
                writes.append(is_write)
            taken[b] += 1
    return addrs, writes


def _with_sync_by_hand(addrs, writes, word, every):
    """The per-access loop :func:`with_sync` vectorizes."""
    out_a, out_w = [], []
    for k, (a, w) in enumerate(zip(addrs, writes), start=1):
        out_a.append(a)
        out_w.append(w)
        if k % every == 0:
            out_a += [word, word]
            out_w += [False, True]
    return out_a, out_w


def _random_cols(rng, n, count):
    """``count`` columns, each a scalar or one address per iteration, and
    each a load or a store."""
    return [(rng.integers(0, 1 << 20, size=n) if rng.random() < 0.5
             else int(rng.integers(0, 1 << 20)), bool(rng.random() < 0.5))
            for _ in range(count)]


def _random_body(rng, n, masked):
    cols = _random_cols(rng, n, int(rng.integers(0, 4)))
    blocks = []
    for _ in range(int(rng.integers(0, 4))):
        mask = (rng.random(n) < rng.random() if masked
                else np.ones(n, bool))
        blocks.append((mask, _random_cols(rng, int(mask.sum()),
                                          int(rng.integers(1, 4)))))
    return cols, blocks


class TestInterleave:
    @pytest.mark.parametrize("seed", range(40))
    def test_matches_the_iteration_loop(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(0, 120))
        cols, blocks = _random_body(rng, n, masked=seed % 2 == 0)
        addrs, writes = interleave(cols, blocks, n=n)
        want_a, want_w = _interleave_by_hand(cols, blocks, n)
        assert addrs.dtype == np.int64 and writes.dtype == bool
        assert addrs.tolist() == want_a
        assert writes.tolist() == want_w

    def test_iteration_count_defaults_to_the_first_column(self):
        loads = np.arange(7) * 64
        cols = [(loads, False), *rmw_cols(8)]
        assert all(np.array_equal(g, w) for g, w in
                   zip(interleave(cols), interleave(cols, n=7)))

    @pytest.mark.parametrize("seed", range(10))
    def test_strided_path_equals_masked_path(self, seed):
        # An all-false block adds no access but forces the masked walk.
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 120))
        cols, blocks = _random_body(rng, n, masked=False)
        strided = interleave(cols, blocks, n=n)
        masked = interleave(cols, [*blocks, (np.zeros(n, bool),
                                             rmw_cols(4096))], n=n)
        assert all(np.array_equal(g, w) for g, w in zip(strided, masked))

    def test_rmw_cols_is_load_then_store_per_field(self):
        assert rmw_cols(100, fields=2, field_size=4) == [
            (100, False), (100, True), (104, False), (104, True)]


class TestWithSync:
    @pytest.mark.parametrize("n,every", [
        (0, 4), (3, 4), (4, 4), (12, 4), (13, 4), (5, 1), (1000, 7)])
    def test_matches_the_access_loop(self, n, every):
        rng = np.random.default_rng(n * 31 + every)
        addrs = rng.integers(0, 1 << 20, size=n)
        writes = rng.random(n) < 0.5
        got_a, got_w = with_sync(addrs, writes, 64, every)
        want_a, want_w = _with_sync_by_hand(addrs.tolist(),
                                            writes.tolist(), 64, every)
        assert got_a.tolist() == want_a
        assert got_w.tolist() == want_w
        assert got_a.size == n + 2 * sync_count(n, every)

    @pytest.mark.parametrize("every", [0, -3])
    def test_rejects_a_non_positive_period(self, every):
        addrs, writes = np.arange(8), np.zeros(8, bool)
        with pytest.raises(ConfigError):
            sync_count(8, every)
        with pytest.raises(ConfigError):
            with_sync(addrs, writes, 64, every)
        pb = PlanBuilder("w", 1)
        sync = pb.line_region("sync", 64, size=8, kind="sync")
        with pytest.raises(ConfigError):
            pb.sync_use(sync, 0, 8, every)


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
