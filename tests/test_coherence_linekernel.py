"""Golden equivalence of the compiled drive on the suite grid and on the
final coherence state.

The second half of the equivalence suite begun in
``tests/test_coherence_fastpath.py``: ``fast=True`` (the compiled loop)
against ``fast=False`` (the Python spec) over the full 19-program suite
grid, the sliced-run API, HITM sampling, L2 and L3 evictions, and the
state a run leaves behind with ``keep_state=True``: cache contents *and*
LRU order at every level, the DTLBs, the per-core miss/LFB state and the
contender masks.
"""

from __future__ import annotations

import shutil

import pytest

from repro.coherence.machine import (
    MulticoreMachine,
    SCALED_WESTMERE,
    SimulationError,
)
from repro.suites import all_programs, get_program
from repro.workloads.base import Mode, RunConfig
from repro.workloads.registry import get_workload

from tests.conftest import SMALL_SPEC
from tests.test_coherence_fastpath import _assert_identical

_GRID = [(p.name, p.cases()[0]) for p in all_programs()]

#: path_counts per grid program, accumulated by the parametrized golden
#: test and checked for coverage by the summary test below it.
_GRID_PATHS = {}


@pytest.mark.parametrize("name,case", _GRID, ids=[n for n, _ in _GRID])
def test_line_kernel_matches_reference_on_suite_grid(name, case):
    prog = get_program(name).trace(case)
    machine = MulticoreMachine(SCALED_WESTMERE, fast=True)
    res = machine.run(prog)
    ref = MulticoreMachine(SCALED_WESTMERE, fast=False).run(prog)
    _assert_identical(res, ref)
    _GRID_PATHS[name] = dict(machine.path_counts)


def test_line_kernel_drives_most_of_the_grid():
    # Meaningfulness guard: the grid test above must genuinely exercise
    # the compiled loop, not the compiler-less fallback.  (Runs after it
    # in file order; a filtered run that skipped the grid is skipped too.)
    if len(_GRID_PATHS) < len(_GRID):
        pytest.skip("suite-grid golden test did not run")
    if shutil.which("cc") is None:
        pytest.skip("no C compiler (cc) on PATH")
    assert all(set(c) == {"native"} for c in _GRID_PATHS.values()), \
        _GRID_PATHS


def _contended_trace(size=None):
    w = get_workload("psums")
    return w.trace(RunConfig(threads=4, mode=Mode.BAD_FS,
                             size=size or w.train_sizes[-1]))


def _snap(cache):
    """Cache contents per set, in LRU order (line, state) pairs."""
    return [list(s.items()) for s in cache.sets]


def _assert_same_state(mf, mr):
    """The coherence state two ``keep_state`` runs left behind."""
    for cf, cr in zip(mf._l1 + mf._l2, mr._l1 + mr._l2):
        assert _snap(cf) == _snap(cr), cf.name
    assert _snap(mf._l3) == _snap(mr._l3)
    assert [list(t) for t in mf._state.tlbs] == \
        [list(t) for t in mr._state.tlbs]
    for field in ("last_miss_line", "lfb_line", "lfb_window",
                  "decay_countdown"):
        assert getattr(mf._state, field) == getattr(mr._state, field), field
    assert list(mf._contenders.items()) == list(mr._contenders.items())
    assert mf._hitm_seen == mr._hitm_seen


def test_line_kernel_final_state_matches_reference():
    prog = _contended_trace()
    mf = MulticoreMachine(SCALED_WESTMERE, fast=True, hitm_sample_period=5)
    mr = MulticoreMachine(SCALED_WESTMERE, fast=False, hitm_sample_period=5)
    _assert_identical(mf.run(prog, keep_state=True),
                      mr.run(prog, keep_state=True))
    assert mr._contenders  # the state holds contended lines to compare
    _assert_same_state(mf, mr)


def test_line_kernel_sliced_matches_reference():
    prog = _contended_trace()
    fast = MulticoreMachine(SCALED_WESTMERE, fast=True).run_sliced(prog, 5)
    ref = MulticoreMachine(SCALED_WESTMERE, fast=False).run_sliced(prog, 5)
    assert len(fast) == len(ref) == 5
    for res_f, res_r in zip(fast, ref):
        _assert_identical(res_f, res_r)


def test_line_kernel_hitm_sampling_matches_reference():
    prog = _contended_trace()
    fast = MulticoreMachine(SCALED_WESTMERE, fast=True,
                            hitm_sample_period=7).run(prog)
    ref = MulticoreMachine(SCALED_WESTMERE, fast=False,
                           hitm_sample_period=7).run(prog)
    _assert_identical(fast, ref)
    assert fast.hitm_samples  # the sweep actually exercised sampling


def test_line_kernel_replays_l2_evictions_identically():
    # 4k distinct lines overflow every L2 set but fit the L3; 32k overflow
    # the L3 too.
    w = get_workload("seq_read")
    for size in (32_768, 262_144):
        prog = w.trace(RunConfig(threads=1, mode=Mode.GOOD, size=size))
        mf = MulticoreMachine(SCALED_WESTMERE, fast=True)
        mr = MulticoreMachine(SCALED_WESTMERE, fast=False)
        res = mf.run(prog, keep_state=True)
        _assert_identical(res, mr.run(prog, keep_state=True))
        assert res.counts["L2_LINES_OUT.DEMAND_CLEAN"] > 0
        _assert_same_state(mf, mr)


def test_line_kernel_replays_dirty_evictions_identically():
    # Same shape but with stores: dirty victims must write back (and land
    # in L3) exactly like the reference loop's back-invalidation path.
    w = get_workload("seq_write")
    prog = w.trace(RunConfig(threads=1, mode=Mode.GOOD, size=32_768))
    mf = MulticoreMachine(SCALED_WESTMERE, fast=True)
    mr = MulticoreMachine(SCALED_WESTMERE, fast=False)
    res = mf.run(prog, keep_state=True)
    _assert_identical(res, mr.run(prog, keep_state=True))
    assert res.counts["L2_LINES_OUT.DEMAND_DIRTY"] > 0
    _assert_same_state(mf, mr)


def test_line_kernel_sliced_replays_warm_resident_lines_identically():
    # Sliced runs hand each window the previous one's warm caches, cut
    # into small windows so the state crosses many calls.
    w = get_workload("seq_write")
    prog = w.trace(RunConfig(threads=1, mode=Mode.GOOD, size=32_768))
    mf = MulticoreMachine(SCALED_WESTMERE, fast=True)
    mr = MulticoreMachine(SCALED_WESTMERE, fast=False)
    res = mf.run_sliced(prog, 4, keep_state=True, max_accesses=3_000)
    ref = mr.run_sliced(prog, 4, keep_state=True, max_accesses=3_000)
    for res_f, res_r in zip(res, ref):
        _assert_identical(res_f, res_r)
    _assert_same_state(mf, mr)


def test_strategy_vocabulary_and_validation():
    assert MulticoreMachine(SMALL_SPEC, fast=True).fast is True
    assert MulticoreMachine(SMALL_SPEC, fast=False).fast is False
    for name in ("auto", "runs", "lines", "ref", "native", "vectorized"):
        with pytest.raises(SimulationError):
            MulticoreMachine(SMALL_SPEC, fast=name)
