"""Tests for the shadow-memory (Zhao et al. [33]) oracle."""

import shutil

import numpy as np
import pytest

from repro.baselines.shadow import (
    FS_RATE_THRESHOLD,
    MAX_THREADS,
    ShadowMemoryDetector,
    ShadowReport,
)
from repro.coherence import native
from repro.errors import BaselineError
from repro.trace.access import ProgramTrace, make_thread

_HAVE_CC = shutil.which("cc") is not None


class _NoC:
    """A stand-in library: any call into it fails the test."""

    def __getattr__(self, name):
        raise AssertionError(f"reached the compiled {name}()")


def rmw_thread(addr, n, ipa=3.0):
    addrs = np.full(2 * n, addr, dtype=np.int64)
    writes = np.zeros(2 * n, bool)
    writes[1::2] = True
    return make_thread(addrs, writes, instr_per_access=ipa)


class TestClassification:
    def test_false_sharing_detected(self):
        # two threads writing distinct words of the same line
        prog = ProgramTrace([rmw_thread(4096, 400), rmw_thread(4104, 400)])
        rep = ShadowMemoryDetector().run(prog)
        assert rep.fs_misses > 100
        assert rep.ts_misses == 0
        assert rep.has_false_sharing

    def test_true_sharing_not_false(self):
        # both threads write the SAME word: contention is true sharing
        prog = ProgramTrace([rmw_thread(4096, 400), rmw_thread(4096, 400)])
        rep = ShadowMemoryDetector().run(prog)
        assert rep.ts_misses > 100
        assert rep.fs_misses == 0
        assert not rep.has_false_sharing

    def test_padded_threads_only_cold_misses(self):
        prog = ProgramTrace([rmw_thread(4096, 400), rmw_thread(4160, 400)])
        rep = ShadowMemoryDetector().run(prog)
        assert rep.fs_misses == 0
        assert rep.ts_misses == 0
        assert rep.cold_misses == 2

    def test_single_thread_no_sharing(self):
        prog = ProgramTrace([rmw_thread(4096, 100)])
        rep = ShadowMemoryDetector().run(prog)
        assert rep.fs_misses == 0 and rep.ts_misses == 0

    def test_read_only_sharing_no_misses_counted(self):
        def t():
            return make_thread(np.full(100, 4096, dtype=np.int64))
        rep = ShadowMemoryDetector().run(ProgramTrace([t(), t()]))
        assert rep.fs_misses == 0 and rep.ts_misses == 0

    def test_mixed_slots_same_line_is_false_sharing(self):
        # reader touches word 0; writer updates word 1 of the same line
        reader = make_thread(np.full(300, 4096, dtype=np.int64))
        writer = rmw_thread(4104, 150)
        rep = ShadowMemoryDetector().run(ProgramTrace([reader, writer]))
        assert rep.fs_misses > 50
        assert rep.ts_misses == 0


class TestRate:
    def test_rate_definition(self):
        prog = ProgramTrace([rmw_thread(4096, 400), rmw_thread(4104, 400)])
        rep = ShadowMemoryDetector().run(prog)
        assert rep.fs_rate == rep.fs_misses / prog.total_instructions
        assert rep.fs_rate > FS_RATE_THRESHOLD

    def test_threshold_boundary(self):
        rep = ShadowReport(fs_misses=11, ts_misses=0, cold_misses=0,
                           instructions=10_000, nthreads=2, per_line={})
        assert rep.has_false_sharing
        rep2 = ShadowReport(fs_misses=9, ts_misses=0, cold_misses=0,
                            instructions=10_000, nthreads=2, per_line={})
        assert not rep2.has_false_sharing

    def test_zero_instructions_rejected(self):
        rep = ShadowReport(0, 0, 0, 0, 1, per_line={})
        with pytest.raises(BaselineError):
            _ = rep.fs_rate

    def test_convenience_function(self):
        # The one-shot rate of a short packed RMW pair, read straight off
        # a default detector run.
        prog = ProgramTrace([rmw_thread(4096, 200), rmw_thread(4104, 200)])
        assert ShadowMemoryDetector().run(prog).fs_rate > FS_RATE_THRESHOLD


class TestLimitations:
    def test_eight_thread_limit(self):
        threads = [rmw_thread(4096 + 8 * i, 10) for i in range(9)]
        with pytest.raises(BaselineError):
            ShadowMemoryDetector().run(ProgramTrace(threads))
        assert MAX_THREADS == 8

    def test_exactly_eight_allowed(self):
        threads = [rmw_thread(4096 + 8 * i, 10) for i in range(8)]
        rep = ShadowMemoryDetector().run(ProgramTrace(threads))
        assert rep.nthreads == 8

    def test_nine_threads_refused_before_any_c_call(self, monkeypatch):
        monkeypatch.setattr(native, "load", lambda: _NoC())
        threads = [rmw_thread(4096 + 8 * i, 10) for i in range(9)]
        with pytest.raises(BaselineError, match="at most 8 threads"):
            ShadowMemoryDetector().run(ProgramTrace(threads))
        with pytest.raises(BaselineError, match="1..8 threads"):
            native.shadow(_NoC(), 4, [t.addrs for t in threads],
                          [t.is_write for t in threads],
                          [np.zeros(t.n_accesses, np.int32)
                           for t in threads], 1)

    @pytest.mark.parametrize("bad", ["length", "2-d", "float-addrs",
                                     "int-writes", "int64-index",
                                     "index-range", "missing-column"])
    def test_mismatched_column_never_reaches_c(self, bad):
        addrs = [np.arange(8, dtype=np.int64) * 4 + 4096 for _ in range(2)]
        writes = [np.ones(8, bool) for _ in range(2)]
        index = [np.zeros(8, np.int32) for _ in range(2)]
        if bad == "length":
            writes[1] = writes[1][:7]
        elif bad == "2-d":
            index[0] = index[0].reshape(2, 4)
        elif bad == "float-addrs":
            addrs[1] = addrs[1].astype(float)
        elif bad == "int-writes":
            writes[0] = writes[0].astype(np.int64)
        elif bad == "int64-index":
            index[1] = index[1].astype(np.int64)
        elif bad == "index-range":
            index[1][3] = 1
        else:
            index.pop()
        with pytest.raises(BaselineError):
            native.shadow(_NoC(), 4, addrs, writes, index, 1)

    def test_run_checks_columns_before_c(self, monkeypatch):
        # A thread whose columns were changed after construction is
        # refused by the column checks, not read out of bounds in C.
        monkeypatch.setattr(native, "load", lambda: _NoC())
        prog = ProgramTrace([rmw_thread(4096, 10), rmw_thread(4100, 10)])
        prog.threads[1].is_write = prog.threads[1].is_write[:5]
        with pytest.raises(BaselineError, match="equal length"):
            ShadowMemoryDetector().run(prog)


class TestOnWorkloads:
    def test_mini_program_fs_gap(self, mini_lab):
        """Paper Section 4.3: mini-programs show an order-of-magnitude gap
        in FS rates between modes."""
        from repro.workloads import RunConfig, get_workload

        w = get_workload("psums")
        det = ShadowMemoryDetector()
        good = det.run(w.trace(RunConfig(threads=4, mode="good", size=2000)))
        bad = det.run(w.trace(RunConfig(threads=4, mode="bad-fs", size=2000)))
        assert bad.fs_rate > 10 * max(good.fs_rate, 1e-6)
        assert bad.has_false_sharing
        assert not good.has_false_sharing


class TestPerLineAttribution:
    def test_line_detail_collected(self):
        prog = ProgramTrace([rmw_thread(4096, 300), rmw_thread(4104, 300)])
        rep = ShadowMemoryDetector().run(prog)
        assert rep.per_line
        fs, ts = rep.per_line[64]
        assert fs > 100 and ts == 0

    def test_detail_lists_only_contended_lines(self):
        prog = ProgramTrace([rmw_thread(4096, 50), rmw_thread(8192, 50)])
        rep = ShadowMemoryDetector().run(prog)
        assert rep.per_line == {}
        assert rep.hottest_fs_lines() == []

    def test_hottest_ordering(self):
        t0 = rmw_thread(4096, 50).concat(rmw_thread(8192, 400))
        t1 = rmw_thread(4104, 50).concat(rmw_thread(8200, 400))
        rep = ShadowMemoryDetector().run(
            ProgramTrace([t0, t1]))
        hot = rep.hottest_fs_lines()
        assert [h[0] for h in hot] == [128, 64]

    def test_hottest_ties_break_by_line(self):
        rep = ShadowReport(19, 1, 0, 1000, 2,
                           per_line={128: (5, 0), 64: (5, 0), 3: (9, 1)})
        assert rep.hottest_fs_lines() == [(3, 9, 1), (64, 5, 0), (128, 5, 0)]

    def test_true_sharing_lines_excluded_from_fs_list(self):
        prog = ProgramTrace([rmw_thread(4096, 200), rmw_thread(4096, 200)])
        rep = ShadowMemoryDetector().run(prog)
        assert rep.hottest_fs_lines() == []
        assert rep.per_line[64][1] > 50  # but recorded as true sharing

    def test_agreement_with_c2c_sampling(self):
        """Instrumentation (shadow) and sampling (c2c) name the same line."""
        from repro.coherence.machine import MulticoreMachine, SCALED_WESTMERE
        from repro.tools.c2c import c2c_report
        from repro.workloads import RunConfig, get_workload

        pdot = get_workload("pdot")
        tr = pdot.trace(RunConfig(threads=4, mode="bad-fs", size=65_536))
        shadow = ShadowMemoryDetector().run(tr)
        m = MulticoreMachine(SCALED_WESTMERE, hitm_sample_period=9)
        res = m.run(tr)
        c2c = c2c_report(res.hitm_samples, 9)
        shadow_top = shadow.hottest_fs_lines(1)[0][0]
        c2c_top = c2c.false_sharing_suspects()[0].line
        assert shadow_top == c2c_top


class TestFastPrefilter:
    """The private-line prefilter and the compiled walk must be invisible:
    identical counts and attribution everywhere.  With ``cc`` on PATH the
    fast run must really take the compiled walk."""

    def _both(self, prog):
        ref = ShadowMemoryDetector(fast=False).run(prog)
        oracle = ShadowMemoryDetector(fast=True)
        fast = oracle.run(prog)
        if _HAVE_CC:
            assert oracle.path == "native"
        return fast, ref

    def _assert_same(self, fast, ref):
        assert fast.fs_misses == ref.fs_misses
        assert fast.ts_misses == ref.ts_misses
        assert fast.cold_misses == ref.cold_misses
        assert fast.instructions == ref.instructions
        assert fast.per_line == ref.per_line

    def test_synthetic_traces(self):
        for prog in (
            ProgramTrace([rmw_thread(4096, 400), rmw_thread(4104, 400)]),
            ProgramTrace([rmw_thread(4096, 400), rmw_thread(4096, 400)]),
            ProgramTrace([rmw_thread(4096, 100)]),
        ):
            self._assert_same(*self._both(prog))

    def test_mini_programs(self):
        from repro.workloads import RunConfig, get_workload

        for name, mode in (("psums", "bad-fs"), ("psums", "good"),
                           ("pdot", "bad-fs")):
            w = get_workload(name)
            prog = w.trace(RunConfig(threads=4, mode=mode,
                                     size=w.train_sizes[0]))
            self._assert_same(*self._both(prog))

    def test_suite_trace_with_line_detail(self):
        from repro.suites import get_program

        p = get_program("linear_regression")
        case = p.verification_cases()[0]
        fast, ref = self._both(p.trace(case))
        self._assert_same(fast, ref)
        assert ref.per_line is not None

    def test_fast_default_on(self):
        assert ShadowMemoryDetector().fast is True

    def test_path_describes_the_most_recent_run(self, monkeypatch):
        prog = ProgramTrace([rmw_thread(4096, 50), rmw_thread(4104, 50)])
        oracle = ShadowMemoryDetector()
        assert oracle.path is None
        oracle.run(prog)
        assert oracle.path == ("native" if _HAVE_CC else "ref")
        monkeypatch.setattr(native, "load", lambda: None)
        oracle.run(prog)
        assert oracle.path == "ref"
        spec = ShadowMemoryDetector(fast=False)
        spec.run(prog)
        assert spec.path == "ref"

    @pytest.mark.parametrize("fast", ["fsat", "ref", "auto", 1, None])
    def test_fast_must_be_a_bool(self, fast):
        with pytest.raises(BaselineError, match="fast must be a bool"):
            ShadowMemoryDetector(fast=fast)
