"""Golden equivalence: the compiled drive loop vs the Python spec loop.

``MulticoreMachine(fast=True)`` drives every window with ``drive.c``, a
transliteration of ``_drive_ref``; ``fast=False`` runs ``_drive_ref``
itself.  The two must give *bit-identical* results: every raw counter,
every per-core cycle count, every HITM sample.  These tests sweep all 12
mini-programs in every supported mode at two merge granularities, suite
traces with real coherence churn, the sliced-run API, HITM sampling and
the prefetcher switch; a companion file adds the 19-program suite grid
and the final coherence state.  The loader's fallback and trust checks
are pinned at the end.
"""

from __future__ import annotations

import logging
import shutil

import pytest

from repro.coherence import native
from repro.coherence.machine import (
    MulticoreMachine,
    SCALED_WESTMERE,
    SimulationError,
)
from repro.suites import get_program
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

needs_cc = pytest.mark.skipif(
    shutil.which("cc") is None,
    reason="no C compiler (cc) on PATH: the simulator drives with the "
           "Python reference loop")


def _assert_identical(res_fast, res_ref):
    assert res_fast.counts == res_ref.counts
    assert res_fast.cycles_per_core == res_ref.cycles_per_core
    assert res_fast.instructions_per_core == res_ref.instructions_per_core
    assert res_fast.seconds == res_ref.seconds
    assert res_fast.hitm_samples == res_ref.hitm_samples


def _run_both(program: ProgramTrace, spec=SCALED_WESTMERE,
              chunk: int = DEFAULT_CHUNK, **kw):
    fast = MulticoreMachine(spec, fast=True, **kw).run(program, chunk=chunk)
    ref = MulticoreMachine(spec, fast=False, **kw).run(program, chunk=chunk)
    return fast, ref


def _mini_cases():
    for w in all_workloads():
        for mode in sorted(m.value for m in w.modes):
            yield w.name, mode


@pytest.mark.parametrize("interleave", list(CHUNKS))
@pytest.mark.parametrize("name,mode", list(_mini_cases()))
def test_fast_path_matches_reference_on_miniprograms(name, mode, interleave):
    w = get_workload(name)
    threads = 1 if w.kind == "seq" else 3
    cfg = RunConfig(threads=threads, mode=mode, size=w.train_sizes[0])
    fast, ref = _run_both(w.trace(cfg), chunk=CHUNKS[interleave])
    _assert_identical(fast, ref)


def test_fast_path_matches_reference_bad_ma_strides():
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
def test_fast_path_matches_reference_on_suite_traces(prog, case, interleave):
    p = get_program(prog)
    fast, ref = _run_both(p.trace(case), chunk=CHUNKS[interleave])
    _assert_identical(fast, ref)


def test_fast_path_matches_reference_sliced():
    w = get_workload("psums")
    cfg = RunConfig(threads=4, mode=Mode.BAD_FS, size=w.train_sizes[0])
    prog = w.trace(cfg)
    fast = MulticoreMachine(SMALL_SPEC, fast=True).run_sliced(prog, 5)
    ref = MulticoreMachine(SMALL_SPEC, fast=False).run_sliced(prog, 5)
    assert len(fast) == len(ref) == 5
    for f, r in zip(fast, ref):
        _assert_identical(f, r)


def test_fast_path_matches_reference_hitm_sampling():
    w = get_workload("false1")
    cfg = RunConfig(threads=4, mode=Mode.BAD_FS, size=w.train_sizes[0])
    prog = w.trace(cfg)
    fast, ref = _run_both(prog, spec=SMALL_SPEC, hitm_sample_period=7)
    _assert_identical(fast, ref)
    assert fast.hitm_samples  # the sweep actually exercised sampling


def test_fast_path_matches_reference_no_prefetch():
    w = get_workload("seq_read")
    cfg = RunConfig(threads=1, mode=Mode.BAD_MA, size=32_768,
                    pattern="stride8")
    fast, ref = _run_both(w.trace(cfg), prefetch=False)
    _assert_identical(fast, ref)


def test_fast_flag_default_and_override():
    m = MulticoreMachine(SMALL_SPEC)
    assert m.fast is True
    assert MulticoreMachine(SMALL_SPEC, fast=False).fast is False
    for bad in ("auto", "runs", "lines", "ref", 1, None):
        with pytest.raises(SimulationError):
            MulticoreMachine(SMALL_SPEC, fast=bad)


def test_default_gate_matches_reference():
    # A machine built with no arguments drives natively and still matches
    # the spec.
    w = get_workload("pdot")
    cfg = RunConfig(threads=3, mode=Mode.BAD_FS, size=w.train_sizes[0])
    prog = w.trace(cfg)
    fast = MulticoreMachine(SMALL_SPEC).run(prog)
    ref = MulticoreMachine(SMALL_SPEC, fast=False).run(prog)
    _assert_identical(fast, ref)


# ------------------------------------------------------------ the loader


def _contended_trace():
    w = get_workload("psums")
    return w.trace(RunConfig(threads=4, mode=Mode.BAD_FS,
                             size=w.train_sizes[0]))


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
    m.run(_contended_trace())
    assert set(m.path_counts) == {"native"}


def test_compilerless_fallback_is_the_reference_loop(fresh_loader, tmp_path,
                                                     monkeypatch, caplog):
    prog = _contended_trace()
    compiled = MulticoreMachine(SMALL_SPEC, hitm_sample_period=3)
    expected = compiled.run(prog)

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "empty"))
    monkeypatch.setattr(native.shutil, "which", lambda name: None)
    native.load.cache_clear()
    m = MulticoreMachine(SMALL_SPEC, hitm_sample_period=3)
    with caplog.at_level(logging.WARNING, logger=native.__name__):
        res = m.run(prog)
        m.run(prog)
    assert m.path_counts == {"ref": sum(compiled.path_counts.values())}
    _assert_identical(res, expected)
    warnings = [r for r in caplog.records if "no C compiler" in r.message]
    assert len(warnings) == 1


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
    prog = _contended_trace()
    _assert_identical(m.run(prog),
                      MulticoreMachine(SMALL_SPEC, fast=False).run(prog))
    assert set(m.path_counts) == {"native"}
