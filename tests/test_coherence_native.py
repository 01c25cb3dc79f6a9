"""Golden equivalence: the compiled drive loop vs the Python spec loop.

``MulticoreMachine(fast=True)`` drives every window with ``drive.c``, a
transliteration of ``_drive_ref``; ``fast=False`` runs ``_drive_ref``
itself.  The two must give *bit-identical* results: every raw counter,
every per-core cycle count, every HITM sample.  These tests sweep all 12
mini-programs in every supported mode at two merge granularities, suite
traces with real coherence churn, the 19-program suite grid, the
sliced-run API, HITM sampling, the prefetcher switch, L2 and L3
evictions, and the state a run leaves behind with ``keep_state=True``:
cache contents *and* LRU order at every level, the DTLBs, the per-core
miss/LFB state and the contender masks.  With ``cc`` on PATH every
``fast=True`` run must also report ``machine.path == "native"``, so a
silent fallback to the spec loop cannot pass as equivalence.  The
loader's fallback and trust checks are pinned at the end.
"""

from __future__ import annotations

import logging
import shutil

import pytest

from repro.baselines.shadow import ShadowMemoryDetector
from repro.coherence import native
from repro.coherence.machine import (
    MulticoreMachine,
    SCALED_WESTMERE,
    SimulationError,
)
from repro.suites import all_programs, get_program
from repro.suites.base import SuiteCase
from repro.trace.access import ProgramTrace
from repro.trace.streams import DEFAULT_CHUNK
from repro.workloads.base import Mode, RunConfig
from repro.workloads.registry import all_workloads, get_workload

from tests.conftest import SMALL_SPEC

#: Merge granularities: the default chunk keeps long same-core runs on one
#: line ("runs"); chunk=1 hands lines between cores on nearly every access
#: ("lines").
CHUNKS = {"runs": DEFAULT_CHUNK, "lines": 1}

_HAVE_CC = shutil.which("cc") is not None

needs_cc = pytest.mark.skipif(
    not _HAVE_CC,
    reason="no C compiler (cc) on PATH: the simulator drives with the "
           "Python reference loop")

_GRID = [(p.name, p.cases()[0]) for p in all_programs()]


def _assert_identical(res_fast, res_ref):
    assert res_fast.counts == res_ref.counts
    assert res_fast.cycles_per_core == res_ref.cycles_per_core
    assert res_fast.instructions_per_core == res_ref.instructions_per_core
    assert res_fast.seconds == res_ref.seconds
    assert res_fast.hitm_samples == res_ref.hitm_samples


def _assert_native(machine):
    """With ``cc`` on PATH, ``machine`` really ran the compiled loop."""
    if _HAVE_CC:
        assert machine.path == "native"


def _run_both(program: ProgramTrace, spec=SCALED_WESTMERE,
              chunk: int = DEFAULT_CHUNK, **kw):
    machine = MulticoreMachine(spec, fast=True, **kw)
    fast = machine.run(program, chunk=chunk)
    ref = MulticoreMachine(spec, fast=False, **kw).run(program, chunk=chunk)
    _assert_native(machine)
    return fast, ref


def _mini_cases():
    for w in all_workloads():
        for mode in sorted(m.value for m in w.modes):
            yield w.name, mode


def _contended_trace(size=None):
    w = get_workload("psums")
    return w.trace(RunConfig(threads=4, mode=Mode.BAD_FS,
                             size=size or w.train_sizes[-1]))


@pytest.mark.parametrize("interleave", list(CHUNKS))
@pytest.mark.parametrize("name,mode", list(_mini_cases()))
def test_native_matches_reference_on_miniprograms(name, mode, interleave):
    w = get_workload(name)
    threads = 1 if w.kind == "seq" else 3
    cfg = RunConfig(threads=threads, mode=mode, size=w.train_sizes[0])
    fast, ref = _run_both(w.trace(cfg), chunk=CHUNKS[interleave])
    _assert_identical(fast, ref)


def test_native_matches_reference_bad_ma_strides():
    w = get_workload("pdot")
    for pattern in ("stride4", "stride16"):
        cfg = RunConfig(threads=6, mode=Mode.BAD_MA, size=w.train_sizes[0],
                        pattern=pattern)
        fast, ref = _run_both(w.trace(cfg))
        _assert_identical(fast, ref)


@pytest.mark.parametrize("interleave", list(CHUNKS))
@pytest.mark.parametrize("prog,case", [
    ("streamcluster", SuiteCase("simsmall", "-O2", 4)),
    ("linear_regression", SuiteCase("50MB", "-O0", 3)),
])
def test_native_matches_reference_on_suite_traces(prog, case, interleave):
    p = get_program(prog)
    fast, ref = _run_both(p.trace(case), chunk=CHUNKS[interleave])
    _assert_identical(fast, ref)


@pytest.mark.parametrize("name,case", _GRID, ids=[n for n, _ in _GRID])
def test_native_matches_reference_on_suite_grid(name, case):
    fast, ref = _run_both(get_program(name).trace(case))
    _assert_identical(fast, ref)


@pytest.mark.parametrize("spec,size", [
    (SMALL_SPEC, 0), (SCALED_WESTMERE, -1),
], ids=["small-spec", "westmere-full-size"])
def test_native_matches_reference_sliced(spec, size):
    w = get_workload("psums")
    cfg = RunConfig(threads=4, mode=Mode.BAD_FS, size=w.train_sizes[size])
    prog = w.trace(cfg)
    machine = MulticoreMachine(spec, fast=True)
    fast = machine.run_sliced(prog, 5)
    ref = MulticoreMachine(spec, fast=False).run_sliced(prog, 5)
    _assert_native(machine)
    assert len(fast) == len(ref) == 5
    for f, r in zip(fast, ref):
        _assert_identical(f, r)


@pytest.mark.parametrize("workload,spec,size", [
    ("false1", SMALL_SPEC, 0), ("psums", SCALED_WESTMERE, -1),
], ids=["false1-small-spec", "psums-westmere-full-size"])
def test_native_matches_reference_hitm_sampling(workload, spec, size):
    w = get_workload(workload)
    cfg = RunConfig(threads=4, mode=Mode.BAD_FS, size=w.train_sizes[size])
    fast, ref = _run_both(w.trace(cfg), spec=spec, hitm_sample_period=7)
    _assert_identical(fast, ref)
    assert fast.hitm_samples  # the sweep actually exercised sampling


def test_native_matches_reference_no_prefetch():
    w = get_workload("seq_read")
    cfg = RunConfig(threads=1, mode=Mode.BAD_MA, size=32_768,
                    pattern="stride8")
    fast, ref = _run_both(w.trace(cfg), prefetch=False)
    _assert_identical(fast, ref)


def test_fast_flag_is_a_bool():
    m = MulticoreMachine(SMALL_SPEC)
    assert m.fast is True
    assert m.path is None  # no run yet
    assert MulticoreMachine(SMALL_SPEC, fast=True).fast is True
    assert MulticoreMachine(SMALL_SPEC, fast=False).fast is False
    for bad in ("auto", "runs", "lines", "ref", "native", "vectorized",
                1, None):
        with pytest.raises(SimulationError):
            MulticoreMachine(SMALL_SPEC, fast=bad)


def test_default_machine_drives_native_and_matches_reference():
    # A machine built with no arguments drives natively and still matches
    # the spec.
    w = get_workload("pdot")
    cfg = RunConfig(threads=3, mode=Mode.BAD_FS, size=w.train_sizes[0])
    prog = w.trace(cfg)
    machine = MulticoreMachine(SMALL_SPEC)
    fast = machine.run(prog)
    ref_machine = MulticoreMachine(SMALL_SPEC, fast=False)
    ref = ref_machine.run(prog)
    _assert_native(machine)
    assert ref_machine.path == "ref"
    _assert_identical(fast, ref)


def test_path_describes_the_most_recent_run(monkeypatch):
    # ``path`` is one fact per run, set afresh by every run and sliced run
    # from the loader's answer, never carried over from an earlier run.
    prog = _contended_trace(get_workload("psums").train_sizes[0])
    machine = MulticoreMachine(SMALL_SPEC)
    machine.run(prog)
    shipped = machine.path
    _assert_native(machine)
    with monkeypatch.context() as m:
        m.setattr(native, "load", lambda: None)
        machine.run(prog)
        assert machine.path == "ref"
    with monkeypatch.context() as m:
        m.setattr("repro.coherence.machine.DEFAULT_SEGMENT", 1_000)
        machine.run_sliced(prog, 3)
    assert machine.path == shipped


# ------------------------------------------------ final coherence state


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


def test_native_final_state_matches_reference():
    prog = _contended_trace()
    mf = MulticoreMachine(SCALED_WESTMERE, fast=True, hitm_sample_period=5)
    mr = MulticoreMachine(SCALED_WESTMERE, fast=False, hitm_sample_period=5)
    _assert_identical(mf.run(prog, keep_state=True),
                      mr.run(prog, keep_state=True))
    _assert_native(mf)
    assert mr._contenders  # the state holds contended lines to compare
    _assert_same_state(mf, mr)


def test_native_replays_l2_evictions_identically():
    # 4k distinct lines overflow every L2 set but fit the L3; 32k overflow
    # the L3 too.
    w = get_workload("seq_read")
    for size in (32_768, 262_144):
        prog = w.trace(RunConfig(threads=1, mode=Mode.GOOD, size=size))
        mf = MulticoreMachine(SCALED_WESTMERE, fast=True)
        mr = MulticoreMachine(SCALED_WESTMERE, fast=False)
        res = mf.run(prog, keep_state=True)
        _assert_identical(res, mr.run(prog, keep_state=True))
        _assert_native(mf)
        assert res.counts["L2_LINES_OUT.DEMAND_CLEAN"] > 0
        _assert_same_state(mf, mr)


def test_native_replays_dirty_evictions_identically():
    # Same shape but with stores: dirty victims must write back (and land
    # in L3) exactly like the reference loop's back-invalidation path.
    w = get_workload("seq_write")
    prog = w.trace(RunConfig(threads=1, mode=Mode.GOOD, size=32_768))
    mf = MulticoreMachine(SCALED_WESTMERE, fast=True)
    mr = MulticoreMachine(SCALED_WESTMERE, fast=False)
    res = mf.run(prog, keep_state=True)
    _assert_identical(res, mr.run(prog, keep_state=True))
    _assert_native(mf)
    assert res.counts["L2_LINES_OUT.DEMAND_DIRTY"] > 0
    _assert_same_state(mf, mr)


def test_native_sliced_replays_warm_resident_lines_identically(monkeypatch):
    # Sliced runs hand each window the previous one's warm caches, cut
    # into small windows so the state crosses many calls.
    monkeypatch.setattr("repro.coherence.machine.DEFAULT_SEGMENT", 3_000)
    w = get_workload("seq_write")
    prog = w.trace(RunConfig(threads=1, mode=Mode.GOOD, size=32_768))
    mf = MulticoreMachine(SCALED_WESTMERE, fast=True)
    mr = MulticoreMachine(SCALED_WESTMERE, fast=False)
    res = mf.run_sliced(prog, 4, keep_state=True)
    ref = mr.run_sliced(prog, 4, keep_state=True)
    _assert_native(mf)
    for res_f, res_r in zip(res, ref):
        _assert_identical(res_f, res_r)
    _assert_same_state(mf, mr)


# ------------------------------------------------------------ the loader


@pytest.fixture
def fresh_loader(monkeypatch, tmp_path):
    """``native.load`` over an empty cache directory, memo cleared."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    native.load.cache_clear()
    yield tmp_path / "cache"
    native.load.cache_clear()


@needs_cc
def test_native_kernel_loads_when_cc_is_on_path(fresh_loader):
    assert native.load() is not None
    assert (fresh_loader / native._library_name()).is_file()
    m = MulticoreMachine(SMALL_SPEC)
    m.run(_contended_trace(get_workload("psums").train_sizes[0]))
    assert m.path == "native"


def test_library_name_hashes_every_source(tmp_path, monkeypatch):
    # One build and one cache key for both compiled loops: editing either
    # source names a new library.
    copies = []
    for source in native.SOURCES:
        copy = tmp_path / source.name
        copy.write_bytes(source.read_bytes())
        copies.append(copy)
    monkeypatch.setattr(native, "SOURCES", tuple(copies))
    names = {native._library_name()}
    for copy in copies:
        copy.write_bytes(copy.read_bytes() + b"\n")
        names.add(native._library_name())
    assert len(names) == 1 + len(copies)


def test_compilerless_fallback_is_the_reference_loop(fresh_loader, tmp_path,
                                                     monkeypatch, caplog):
    # One warning covers both compiled loops: the simulator and the shadow
    # oracle each fall back to their spec with the same results.
    prog = _contended_trace(get_workload("psums").train_sizes[0])
    compiled = MulticoreMachine(SMALL_SPEC, hitm_sample_period=3)
    expected = compiled.run(prog)
    _assert_native(compiled)
    spec_report = ShadowMemoryDetector(fast=False).run(prog)

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "empty"))
    monkeypatch.setattr(native.shutil, "which", lambda name: None)
    native.load.cache_clear()
    m = MulticoreMachine(SMALL_SPEC, hitm_sample_period=3)
    oracle = ShadowMemoryDetector()
    with caplog.at_level(logging.WARNING, logger=native.__name__):
        res = m.run(prog)
        m.run(prog)
        report = oracle.run(prog)
    assert native.load() is None
    assert m.path == oracle.path == "ref"
    _assert_identical(res, expected)
    assert report.counts == spec_report.counts
    assert report.per_line == spec_report.per_line
    warnings = [r for r in caplog.records if "no C compiler" in r.message]
    assert len(warnings) == 1
    assert "shadow oracle" in warnings[0].message


@needs_cc
@pytest.mark.parametrize("writable", ["file", "directory"])
def test_untrusted_cached_library_is_never_loaded(fresh_loader, monkeypatch,
                                                  writable):
    fresh_loader.mkdir(mode=0o700)
    planted = fresh_loader / native._library_name()
    planted.write_bytes(b"not a library")
    planted.chmod(0o666 if writable == "file" else 0o600)
    if writable == "directory":
        fresh_loader.chmod(0o777)
    opened = []
    real_cdll = native.ctypes.CDLL

    def recording_cdll(path, *args, **kwargs):
        opened.append(str(path))
        return real_cdll(path, *args, **kwargs)

    monkeypatch.setattr(native.ctypes, "CDLL", recording_cdll)
    assert native.load() is not None
    assert opened and str(planted) not in opened
    assert planted.read_bytes() == b"not a library"
    m = MulticoreMachine(SMALL_SPEC)
    prog = _contended_trace(get_workload("psums").train_sizes[0])
    _assert_identical(m.run(prog),
                      MulticoreMachine(SMALL_SPEC, fast=False).run(prog))
    assert m.path == "native"
