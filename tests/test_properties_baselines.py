"""Property-based tests for the baseline detectors."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.baselines import shadow
from repro.baselines.shadow import ShadowMemoryDetector
from repro.baselines.sheriff import SheriffDetector
from repro.trace.access import ProgramTrace, make_thread


@st.composite
def shared_region_programs(draw, max_threads=4, max_len=200, n_words=256):
    """Threads touching a small shared region: plenty of real contention."""
    nt = draw(st.integers(1, max_threads))
    threads = []
    for _ in range(nt):
        n = draw(st.integers(1, max_len))
        addrs = draw(st.lists(st.integers(0, n_words - 1),
                              min_size=n, max_size=n))
        writes = draw(st.lists(st.booleans(), min_size=n, max_size=n))
        threads.append(make_thread(
            (np.array(addrs, dtype=np.int64) * 4) + 4096,
            np.array(writes, dtype=bool)))
    return ProgramTrace(threads)


class TestShadowProperties:
    @settings(max_examples=40, deadline=None)
    @given(shared_region_programs())
    def test_misses_bounded_by_accesses(self, prog):
        rep = ShadowMemoryDetector().run(prog)
        total = rep.fs_misses + rep.ts_misses + rep.cold_misses
        assert total <= prog.total_accesses
        assert rep.fs_misses >= 0 and rep.ts_misses >= 0

    @settings(max_examples=40, deadline=None)
    @given(shared_region_programs())
    def test_cold_misses_bounded_by_footprint(self, prog):
        rep = ShadowMemoryDetector().run(prog)
        assert rep.cold_misses <= prog.footprint_lines() * prog.nthreads

    @settings(max_examples=30, deadline=None)
    @given(shared_region_programs(max_threads=1))
    def test_single_thread_no_contention(self, prog):
        rep = ShadowMemoryDetector().run(prog)
        assert rep.fs_misses == 0
        assert rep.ts_misses == 0

    @settings(max_examples=30, deadline=None)
    @given(shared_region_programs())
    def test_deterministic(self, prog):
        a = ShadowMemoryDetector().run(prog)
        b = ShadowMemoryDetector().run(prog)
        assert (a.fs_misses, a.ts_misses, a.cold_misses) == \
            (b.fs_misses, b.ts_misses, b.cold_misses)

    @settings(max_examples=30, deadline=None)
    @given(shared_region_programs())
    def test_per_line_totals_match_aggregate(self, prog):
        rep = ShadowMemoryDetector().run(prog)
        fs = sum(v[0] for v in rep.per_line.values())
        ts = sum(v[1] for v in rep.per_line.values())
        assert fs == rep.fs_misses
        assert ts == rep.ts_misses

    @settings(max_examples=30, deadline=None)
    @given(shared_region_programs())
    def test_read_only_programs_never_contend(self, prog):
        # strip all writes: no invalidations can ever happen
        threads = [make_thread(t.addrs.copy()) for t in prog.threads]
        rep = ShadowMemoryDetector().run(ProgramTrace(threads))
        assert rep.fs_misses == 0 and rep.ts_misses == 0


class TestSheriffProperties:
    @settings(max_examples=40, deadline=None)
    @given(shared_region_programs())
    def test_implicated_bounded_by_writes(self, prog):
        rep = SheriffDetector().run(prog)
        assert 0 <= rep.interleaved_writes <= rep.total_writes

    @settings(max_examples=30, deadline=None)
    @given(shared_region_programs(max_threads=1))
    def test_single_thread_clean(self, prog):
        rep = SheriffDetector().run(prog)
        assert rep.interleaved_writes == 0

    @settings(max_examples=30, deadline=None)
    @given(shared_region_programs())
    def test_deterministic(self, prog):
        a = SheriffDetector().run(prog)
        b = SheriffDetector().run(prog)
        assert a.interleaved_writes == b.interleaved_writes

    @settings(max_examples=25, deadline=None)
    @given(shared_region_programs())
    def test_sheriff_at_least_as_alarmist_as_shadow(self, prog):
        """SHERIFF's coarse epoch/neighbourhood analysis never reports a
        clean program where the precise oracle reports heavy FS write
        traffic (its known bias is over-, not under-reporting)."""
        shadow = ShadowMemoryDetector().run(prog)
        sheriff = SheriffDetector(epoch_accesses=64).run(prog)
        if shadow.fs_misses > 50:
            assert sheriff.interleaved_writes > 0


class TestShadowWindowInvariance:
    @settings(max_examples=60, deadline=None)
    @given(shared_region_programs(n_words=40), st.sampled_from([1, 7, 64]),
           st.booleans(), st.integers(1, 8))
    def test_report_independent_of_window_size(
            self, prog, window, fast, chunk):
        """The oracle walks ``interleave_stream`` windows; state and the
        repeated-word filter's predecessor carry over each window edge, so
        no window size changes a count or a line's attribution."""
        det = ShadowMemoryDetector(fast=fast)
        whole = det.run(prog, chunk=chunk)
        saved = shadow.DEFAULT_SEGMENT
        shadow.DEFAULT_SEGMENT = window
        try:
            windowed = det.run(prog, chunk=chunk)
        finally:
            shadow.DEFAULT_SEGMENT = saved
        assert windowed.counts == whole.counts
        assert windowed.per_line == whole.per_line
