"""Property-based tests for the baseline detectors."""

import shutil

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.baselines import shadow
from repro.baselines.shadow import ShadowMemoryDetector
from repro.baselines.sheriff import SheriffDetector
from repro.trace.access import ProgramTrace, make_thread

from tests.test_properties_machine import program_traces


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


@st.composite
def oracle_programs(draw):
    """1-8 threads of unequal length from either strategy, as drawn, with
    a zero-length thread, or folded into an all-private layout (no line
    shared) or an all-shared one (every thread on one line)."""
    prog = draw(st.one_of(shared_region_programs(max_threads=8),
                          program_traces(max_threads=8)))
    threads = list(prog.threads)
    layout = draw(st.sampled_from(
        ["as-drawn", "zero-length", "all-private", "all-shared"]))
    if layout == "zero-length":
        empty = make_thread(np.zeros(0, np.int64))
        at = draw(st.integers(0, len(threads) - 1))
        if len(threads) < 8:
            threads.insert(at, empty)
        else:
            threads[at] = empty
    elif layout == "all-private":
        threads = [make_thread(t.addrs + (i << 20), t.is_write)
                   for i, t in enumerate(threads)]
    elif layout == "all-shared":
        threads = [make_thread(4096 + t.addrs % 64, t.is_write)
                   for t in threads]
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


class TestCompiledOracle:
    @settings(max_examples=100, deadline=None)
    @given(oracle_programs(), st.integers(1, 8))
    def test_compiled_walk_equals_spec(self, prog, chunk):
        """``shadow.c``'s round-robin walk over per-thread columns gives
        the spec's counts and attribution."""
        oracle = ShadowMemoryDetector()
        got = oracle.run(prog, chunk=chunk)
        want = ShadowMemoryDetector(fast=False).run(prog, chunk=chunk)
        assert oracle.path == ("native" if shutil.which("cc") else "ref")
        assert got.counts == want.counts
        assert got.per_line == want.per_line


class TestShadowWindowInvariance:
    @settings(max_examples=60, deadline=None)
    @given(shared_region_programs(n_words=40), st.sampled_from([1, 7, 64]),
           st.booleans(), st.integers(1, 8))
    def test_report_independent_of_window_size(
            self, prog, window, fast, chunk):
        """The spec walks ``interleave_stream`` windows and its state
        carries over each window edge, so no window size changes a count
        or a line's attribution (the compiled walk has no windows)."""
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
