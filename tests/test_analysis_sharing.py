"""Tests for the static sharing analyzer."""

import numpy as np
import pytest

from repro.analysis.sharing import (
    HOSTILE_MIN_FOOTPRINT,
    SIGNIFICANCE_THRESHOLD,
    SharingReport,
    StaticSharingAnalyzer,
    ThreadLineUse,
    analyze_trace,
    predict_plan,
)
from repro.trace.access import ProgramTrace, empty_thread, make_thread
from repro.workloads.base import RunConfig
from repro.workloads.plan import PlanBuilder
from repro.workloads.registry import get_workload


def rmw_thread(addr, n, ipa=3.0):
    """n read-modify-write pairs on one address."""
    addrs = np.full(2 * n, addr, dtype=np.int64)
    writes = np.zeros(2 * n, bool)
    writes[1::2] = True
    return make_thread(addrs, writes, instr_per_access=ipa)


def seam_plan(high_phase):
    """T0 writes the last word of one line in phase 0 (window [0, 1)); T1
    writes the first word of the next line in ``high_phase``."""
    b = PlanBuilder("seam", 2)
    low, high = b.line_region("low"), b.line_region("high")
    b.use(low, 0, writes=10, start=7, stop=8, order="scattered")
    b.use(high, 1, writes=10, start=0, stop=1, order="scattered",
          phase=high_phase)
    return b.finish(ipa=3.0)


@pytest.fixture(scope="module")
def analyzer():
    return StaticSharingAnalyzer()


class TestClassification:
    def test_private_lines_counted_not_detailed(self, analyzer):
        prog = ProgramTrace([rmw_thread(0, 50), rmw_thread(4096, 50)])
        rep = analyzer.analyze(prog)
        assert rep.n_lines == 2
        assert rep.n_private == 2
        assert rep.shared == []
        assert rep.verdict == "good"

    def test_read_shared(self, analyzer):
        a = make_thread(np.full(50, 4096, dtype=np.int64))
        b = make_thread(np.full(50, 4100, dtype=np.int64))
        rep = analyzer.analyze(ProgramTrace([a, b]))
        assert rep.category_counts()["read-shared"] == 1
        assert rep.verdict == "good"

    def test_true_shared_same_word(self, analyzer):
        # both threads write the same 4-byte word
        rep = analyzer.analyze(
            ProgramTrace([rmw_thread(4096, 50), rmw_thread(4096, 50)])
        )
        assert rep.category_counts()["true-shared"] == 1
        assert rep.category_counts()["false-shared"] == 0

    def test_true_shared_writer_vs_reader_word(self, analyzer):
        # one thread writes a word another thread only reads — the shadow
        # oracle's true-sharing rule, not false sharing
        writer = rmw_thread(4096, 50)
        reader = make_thread(np.full(50, 4096, dtype=np.int64))
        rep = analyzer.analyze(ProgramTrace([writer, reader]))
        assert rep.category_counts()["true-shared"] == 1

    def test_false_shared_disjoint_words(self, analyzer):
        rep = analyzer.analyze(
            ProgramTrace([rmw_thread(4096, 200), rmw_thread(4104, 200)])
        )
        fs = rep.false_shared()
        assert len(fs) == 1
        ls = fs[0]
        assert ls.line == 64
        assert ls.contended
        assert sorted(ls.writers) == [0, 1]
        assert ls.evidence() == {0: (0, 0), 1: (8, 8)}
        # both threads' whole streams are implicated
        assert ls.significance == pytest.approx(1.0)
        assert rep.verdict == "bad-fs"

    def test_handoff_not_contended(self, analyzer):
        # T0 writes line 64 early then moves on; T1 arrives much later:
        # layout-false-shared, but the position intervals are disjoint,
        # so no ping-pong is possible and the verdict stays good.
        t0 = rmw_thread(4096, 10).concat(rmw_thread(8192, 500))
        t1 = rmw_thread(12288, 500).concat(rmw_thread(4104, 10))
        rep = analyzer.analyze(ProgramTrace([t0, t1]))
        fs_all = rep.false_shared(contended_only=False)
        assert [ls.line for ls in fs_all] == [64]
        assert not fs_all[0].contended
        assert fs_all[0].significance == 0.0
        assert rep.false_shared() == []
        assert rep.verdict == "good"

    def test_significance_scales_with_share(self, analyzer):
        # contended line carries ~20% of each thread's accesses
        t0 = rmw_thread(4096, 100).concat(rmw_thread(8192, 400))
        t1 = rmw_thread(4104, 100).concat(rmw_thread(12288, 400))
        rep = analyzer.analyze(ProgramTrace([t0, t1]))
        (ls,) = rep.false_shared()
        assert ls.significance == pytest.approx(0.2, rel=0.05)

    def test_empty_program(self, analyzer):
        rep = analyzer.analyze(ProgramTrace([empty_thread(10)]))
        assert rep.n_lines == 0
        assert rep.verdict == "good"

    def test_single_thread_never_shares(self, analyzer):
        t = rmw_thread(4096, 100).concat(rmw_thread(4104, 100))
        rep = analyzer.analyze(ProgramTrace([t]))
        assert rep.n_private == rep.n_lines == 1
        assert rep.shared == []


class TestNearMisses:
    def _pair(self, lo_addr, hi_addr):
        # two threads, each the sole writer of one of two adjacent lines
        return ProgramTrace([rmw_thread(lo_addr, 100),
                             rmw_thread(hi_addr, 100)])

    def test_tight_pair_reported(self, analyzer):
        # T0 writes byte 60 of line 64, T1 writes byte 0 of line 65:
        # 3 bytes of slack across the seam
        rep = analyzer.analyze(self._pair(4096 + 60, 4160))
        (nm,) = rep.near_misses
        assert (nm.line, nm.tid_low, nm.tid_high) == (64, 0, 1)
        assert nm.slack_bytes == 3

    def test_loose_pair_not_reported(self, analyzer):
        # spans sit at the far ends of their lines: plenty of slack
        rep = analyzer.analyze(self._pair(4096, 4160 + 60))
        assert rep.near_misses == []

    def test_same_thread_not_reported(self, analyzer):
        t = rmw_thread(4096 + 60, 100).concat(rmw_thread(4160, 100))
        rep = analyzer.analyze(ProgramTrace([t, rmw_thread(8192, 100)]))
        assert rep.near_misses == []

    def test_temporally_disjoint_pair_not_reported(self, analyzer):
        # same tight layout, but T1 only arrives after T0 is long gone
        t0 = rmw_thread(4096 + 60, 10).concat(rmw_thread(8192, 500))
        t1 = rmw_thread(12288, 500).concat(rmw_thread(4160, 10))
        rep = analyzer.analyze(ProgramTrace([t0, t1]))
        assert rep.near_misses == []


class TestProfiles:
    def test_sequential_scan_not_hostile(self, analyzer):
        addrs = np.arange(0, HOSTILE_MIN_FOOTPRINT * 64 * 2, 8,
                          dtype=np.int64)
        rep = analyzer.analyze(ProgramTrace([make_thread(addrs)]))
        (p,) = rep.profiles
        assert p.footprint_lines >= HOSTILE_MIN_FOOTPRINT
        assert p.refetch_rate == 0.0
        assert not p.hostile

    def test_repeated_large_scan_is_hostile(self, analyzer):
        # sweep a large footprint line-by-line, many times over: every
        # revisit is far outside the refetch window
        once = np.arange(0, HOSTILE_MIN_FOOTPRINT * 64 * 2, 64,
                         dtype=np.int64)
        addrs = np.tile(once, 4)
        rep = analyzer.analyze(ProgramTrace([make_thread(addrs)]))
        (p,) = rep.profiles
        assert p.hostile
        assert rep.verdict == "bad-ma"
        assert rep.hostile_threads == [0]

    def test_small_footprint_never_hostile(self, analyzer):
        # heavy re-fetching over a handful of lines is cache-resident
        once = np.arange(0, 40 * 64, 64, dtype=np.int64)
        rep = analyzer.analyze(ProgramTrace([make_thread(np.tile(once, 50))]))
        assert not rep.profiles[0].hostile


class TestThreadLineUse:
    def test_overlap_rule(self):
        def use(lo, hi):
            return ThreadLineUse(0, 1, 1, (lo, hi), (0, 0), (0, 0))

        def trace_use(first, last):
            # trace positions first..last inclusive, as a half-open window
            return use(first, last + 1)

        assert trace_use(0, 10).overlaps(trace_use(5, 20))
        assert trace_use(5, 20).overlaps(trace_use(0, 10))
        assert trace_use(0, 10).overlaps(trace_use(10, 20))  # touching counts
        assert not trace_use(0, 9).overlaps(trace_use(10, 20))
        # plan-style float windows: a shared endpoint is a hand-off...
        assert not use(0.0, 1.0).overlaps(use(1.0, 2.0))
        assert use(0.0, 1.0).overlaps(use(0.5, 1.5))
        # ...and the near-miss gate applies the same rule
        assert predict_plan(seam_plan(high_phase=1)).near_misses == []
        (nm,) = predict_plan(seam_plan(high_phase=0)).near_misses
        # write spans hold element start offsets: byte 56 and byte 0
        assert (nm.tid_low, nm.tid_high, nm.slack_bytes) == (0, 1, 7)


class TestReport:
    @pytest.fixture(scope="class")
    def bad(self):
        return analyze_trace(
            ProgramTrace([rmw_thread(4096, 200), rmw_thread(4104, 200)],
                         name="demo")
        )

    def test_render_mentions_verdict_and_line(self, bad):
        out = bad.render()
        assert "demo" in out
        assert "bad-fs" in out
        assert "0x1000" in out

    def test_to_dict_round_trips_essentials(self, bad):
        d = bad.to_dict()
        assert d["verdict"] == "bad-fs"
        assert d["category_counts"]["false-shared"] == 1
        assert d["shared_lines"][0]["address"] == "0x1000"

    def test_fs_significance_thresholding(self, bad):
        assert bad.fs_significance > SIGNIFICANCE_THRESHOLD
        assert bad.has_false_sharing

    def test_empty_report_defaults(self):
        rep = SharingReport("x", 1, 0, 0, 0, [])
        assert rep.verdict == "good"
        assert rep.category_counts()["private"] == 0
        assert "x" in rep.render()


class TestOnMiniPrograms:
    @pytest.mark.parametrize("mode,expected", [("good", "good"),
                                               ("bad-fs", "bad-fs")])
    def test_psums_verdicts(self, analyzer, mode, expected):
        w = get_workload("psums")
        prog = w.trace(RunConfig(threads=4, mode=mode, size=2000))
        assert analyzer.analyze(prog).verdict == expected

    def test_pmatmult_good_boundaries_not_contended(self, analyzer):
        # partition-boundary lines are layout-false-shared but only ever
        # handed off — the case that forced the temporal gate
        w = get_workload("pmatmult")
        prog = w.trace(RunConfig(threads=6, mode="good",
                                 size=w.train_sizes[0]))
        rep = analyzer.analyze(prog)
        assert rep.false_shared(contended_only=False)
        assert rep.false_shared() == []
        assert rep.verdict == "good"
