"""Property tests: the static analyzer against the shadow oracle.

The two detectors answer the same question from opposite ends — layout
versus replayed execution — so their structural claims must line up:

* on every mini-program, the static analyzer flags false-shared lines
  exactly where the shadow oracle attributes false-sharing misses in
  bad-fs mode, and flags none in good (or bad-ma) mode;
* on arbitrary random programs, per-line miss attributions respect the
  static classification (a layout-false-shared line cannot produce a
  true-sharing miss; a private or read-only line cannot produce any
  invalidation miss).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.sharing import StaticSharingAnalyzer
from repro.baselines.shadow import ShadowMemoryDetector
from repro.trace.access import ProgramTrace, make_thread
from repro.workloads.base import Mode, RunConfig
from repro.workloads.registry import mt_miniprograms, seq_miniprograms

ANALYZER = StaticSharingAnalyzer()
ORACLE = ShadowMemoryDetector()


def _case_grid():
    cases = []
    for w in mt_miniprograms():
        for mode in sorted(w.modes, key=lambda m: m.value):
            for t in (2, 6):
                cases.append(pytest.param(
                    w, RunConfig(threads=t, mode=mode,
                                 size=w.train_sizes[0]),
                    id=f"{w.name}-{mode.value}-t{t}",
                ))
    for w in seq_miniprograms():
        for mode in sorted(w.modes, key=lambda m: m.value):
            cases.append(pytest.param(
                w, RunConfig(threads=1, mode=mode, size=w.train_sizes[0]),
                id=f"{w.name}-{mode.value}-t1",
            ))
    return cases


class TestMiniProgramParity:
    """Exhaustive sweep: all 12 minis, every mode, static == shadow."""

    @pytest.mark.parametrize("w,cfg", _case_grid())
    def test_static_flags_fs_lines_iff_shadow_attributes_misses(
            self, w, cfg):
        prog = w.trace(cfg)
        rep = ANALYZER.analyze(prog)
        shadow = ORACLE.run(prog)
        static_lines = {ls.line for ls in rep.false_shared()}
        shadow_lines = {line for line, (fs, _ts)
                        in (shadow.per_line or {}).items() if fs}
        assert static_lines == shadow_lines
        if cfg.mode is Mode.BAD_FS:
            assert rep.verdict == "bad-fs"
            assert shadow.has_false_sharing
        else:
            # good and bad-ma modes are free of false sharing by design
            assert static_lines == set()
            assert rep.verdict != "bad-fs"
            assert not shadow.has_false_sharing


@st.composite
def shared_region_programs(draw, max_threads=4, max_len=200):
    """Threads hammering a 16-line region: all categories show up."""
    nt = draw(st.integers(1, max_threads))
    threads = []
    for _ in range(nt):
        n = draw(st.integers(1, max_len))
        addrs = draw(st.lists(st.integers(0, 255), min_size=n, max_size=n))
        writes = draw(st.lists(st.booleans(), min_size=n, max_size=n))
        threads.append(make_thread(
            (np.array(addrs, dtype=np.int64) * 4) + 4096,
            np.array(writes, dtype=bool)))
    return ProgramTrace(threads)


class TestClassificationProperties:
    @settings(max_examples=40, deadline=None)
    @given(shared_region_programs())
    def test_categories_partition_the_lines(self, prog):
        rep = ANALYZER.analyze(prog)
        assert sum(rep.category_counts().values()) == rep.n_lines
        assert rep.n_private + len(rep.shared) == rep.n_lines

    @settings(max_examples=40, deadline=None)
    @given(shared_region_programs(max_threads=1))
    def test_single_thread_all_private(self, prog):
        rep = ANALYZER.analyze(prog)
        assert rep.n_private == rep.n_lines
        assert rep.verdict != "bad-fs"

    @settings(max_examples=40, deadline=None)
    @given(shared_region_programs())
    def test_thread_order_invariant(self, prog):
        fwd = ANALYZER.analyze(prog)
        rev = ANALYZER.analyze(ProgramTrace(prog.threads[::-1]))
        assert fwd.category_counts() == rev.category_counts()
        assert {ls.line for ls in fwd.false_shared()} == \
               {ls.line for ls in rev.false_shared()}

    @settings(max_examples=30, deadline=None)
    @given(shared_region_programs())
    def test_shadow_attribution_respects_static_categories(self, prog):
        rep = ANALYZER.analyze(prog)
        shadow = ORACLE.run(prog)
        by_cat = {ls.line: ls.category for ls in rep.shared}
        for line, (fs, ts) in (shadow.per_line or {}).items():
            cat = by_cat.get(line, "private")
            # invalidations need a second thread and a writer
            if cat in ("private", "read-shared"):
                assert fs == 0 and ts == 0
            # word sets on a layout-false-shared line are thread-disjoint
            # for the whole run, so no event can be a true-sharing miss
            if cat == "false-shared":
                assert ts == 0
