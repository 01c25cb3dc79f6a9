"""Binary trace store: round-trips, corruption handling, streamed drives.

The store (``repro.trace.store``) is the zero-copy transport for traces:
fixed-width little-endian columns behind a versioned JSON header, opened as
read-only memmap views.  These tests pin the format contract — bit-exact
round-trips (including through a simulator drive), hard ``TraceError`` on
any corrupt/truncated/foreign file, and the streamed-merge/streamed-run
equivalences the memmap path relies on.
"""

from __future__ import annotations

import json
import os
import struct

import numpy as np
import pytest

from repro.coherence.machine import MulticoreMachine
from repro.errors import TraceError
from repro.trace import (
    DEFAULT_CHUNK,
    ProgramTrace,
    ThreadTrace,
    interleave_stream,
    open_program,
    open_store,
    read_store,
    save_program,
    write_store,
)
from repro.trace.store import STORE_MAGIC, STORE_VERSION

from tests.conftest import SMALL_SPEC


def _random_program(rng, nthreads=3, max_len=600):
    threads = []
    for t in range(nthreads):
        k = int(rng.integers(0, max_len))
        addrs = rng.integers(0, 1 << 14, size=k, dtype=np.int64)
        writes = rng.random(k) < 0.4
        threads.append(ThreadTrace(addrs, writes,
                                   instr_per_access=2.0 + t,
                                   extra_instructions=10 * t))
    return ProgramTrace(threads, name="rand", meta={"mode": "unit"})


# --------------------------------------------------------------- round-trips


def test_store_round_trips_columns_bitwise(tmp_path, rng):
    path = tmp_path / "cols.rtrc"
    a = rng.integers(0, 1 << 40, size=1000, dtype=np.int64)
    b = rng.integers(0, 2, size=1000).astype(np.uint8)
    digest = write_store(path, [("addr", a), ("is_write", b)],
                         meta={"kind": "unit"})
    st = open_store(path)
    assert st.digest == digest
    assert st.n == 1000
    assert st.meta["kind"] == "unit"
    assert np.array_equal(st["addr"], a)
    assert np.array_equal(st["is_write"], b)
    # memmap views are read-only and zero-copy
    assert not st["addr"].flags.writeable
    rd = read_store(path)
    assert rd["addr"].flags.writeable
    assert np.array_equal(rd["addr"], a)


def test_store_digest_is_content_stable(tmp_path, rng):
    a = rng.integers(0, 1 << 30, size=64, dtype=np.int64)
    d1 = write_store(tmp_path / "x1.rtrc", [("addr", a)], meta={"k": 1})
    d2 = write_store(tmp_path / "x2.rtrc", [("addr", a)], meta={"k": 2})
    d3 = write_store(tmp_path / "x3.rtrc", [("addr", a + 1)], meta={"k": 1})
    assert d1 == d2      # digest covers column bytes, not meta
    assert d1 != d3


def test_program_round_trip_drives_bit_identical(tmp_path, rng):
    prog = _random_program(rng)
    path = tmp_path / "prog.rtrc"
    prog.to_file(path)
    for loader in (ProgramTrace.open_mmap, ProgramTrace.from_file):
        back = loader(path)
        assert back.nthreads == prog.nthreads
        for t0, t1 in zip(prog.threads, back.threads):
            assert np.array_equal(t0.addrs, t1.addrs)
            assert np.array_equal(t0.is_write, t1.is_write)
            assert t0.instr_per_access == t1.instr_per_access
            assert t0.extra_instructions == t1.extra_instructions
        res_a = MulticoreMachine(SMALL_SPEC, fast=True).run(prog)
        res_b = MulticoreMachine(SMALL_SPEC, fast=True).run(back)
        assert res_a.counts == res_b.counts
        assert res_a.cycles_per_core == res_b.cycles_per_core


def test_program_store_records_digest_and_kind(tmp_path, rng):
    prog = _random_program(rng, nthreads=2)
    path = tmp_path / "p.rtrc"
    digest = save_program(prog, path)
    back = open_program(path)
    assert back.meta["store_digest"] == digest
    assert back.meta["mode"] == "unit"
    assert back.name == "rand"


def test_wrong_kind_is_a_trace_error(tmp_path, rng):
    path = tmp_path / "other.rtrc"
    write_store(path, [("addr", rng.integers(0, 1 << 20, size=8,
                                             dtype=np.int64))],
                meta={"kind": "other"})
    with pytest.raises(TraceError, match="kind"):
        open_program(path)


# ------------------------------------------------------- zero-copy post_init


def test_post_init_does_not_copy_contiguous_columns(tmp_path, rng):
    t = ThreadTrace(rng.integers(0, 1 << 20, size=64, dtype=np.int64),
                    rng.random(64) < 0.5)
    save_program(ProgramTrace([t]), tmp_path / "t.rtrc")
    st = open_store(tmp_path / "t.rtrc")
    addr = st["addr"]
    wr = st["is_write"]
    back = ThreadTrace(addr, wr)
    # same memory, not a private copy — GB-scale traces stay page-shared
    assert back.addrs is addr
    same = back.is_write if back.is_write.base is None else back.is_write.base
    assert same is wr or same is wr.base
    # and an already-contiguous in-memory array passes through too
    a2 = np.arange(16, dtype=np.int64)
    w2 = np.zeros(16, dtype=bool)
    t2 = ThreadTrace(a2, w2)
    assert t2.addrs is a2
    assert t2.is_write is w2


def test_post_init_still_validates(rng):
    with pytest.raises(TraceError):
        ThreadTrace(np.array([-1], dtype=np.int64), np.array([False]))
    with pytest.raises(TraceError):
        ThreadTrace(np.arange(4, dtype=np.int64), np.zeros(3, dtype=bool))


# ----------------------------------------------------------- corrupt inputs


def _valid_store_bytes(tmp_path, rng):
    path = tmp_path / "ok.rtrc"
    write_store(path, [
        ("addr", rng.integers(0, 1 << 20, size=32, dtype=np.int64)),
        ("is_write", rng.integers(0, 2, size=32).astype(np.uint8)),
    ], meta={"kind": "unit"})
    return path.read_bytes()


@pytest.mark.parametrize("mangle", [
    "empty", "short-magic", "bad-magic", "truncated-header",
    "mangled-json", "truncated-columns", "header-overrun",
])
def test_corrupt_stores_raise_trace_error(tmp_path, rng, mangle):
    raw = _valid_store_bytes(tmp_path, rng)
    if mangle == "empty":
        raw = b""
    elif mangle == "short-magic":
        raw = raw[:3]
    elif mangle == "bad-magic":
        raw = b"XXXX" + raw[4:]
    elif mangle == "truncated-header":
        raw = raw[:10]
    elif mangle == "mangled-json":
        raw = raw[:8] + b"X" + raw[9:]
    elif mangle == "truncated-columns":
        raw = raw[:-16]
    elif mangle == "header-overrun":
        raw = raw[:4] + struct.pack("<I", 1 << 20) + raw[8:]
    bad = tmp_path / f"{mangle}.rtrc"
    bad.write_bytes(raw)
    with pytest.raises(TraceError):
        open_store(bad)
    with pytest.raises(TraceError):
        read_store(bad)


def test_wrong_version_is_a_trace_error(tmp_path, rng):
    raw = _valid_store_bytes(tmp_path, rng)
    (hlen,) = struct.unpack_from("<I", raw, 4)
    header = json.loads(raw[8:8 + hlen].decode("utf-8"))
    header["version"] = STORE_VERSION + 41
    enc = json.dumps(header, sort_keys=True).encode("utf-8")
    bad = tmp_path / "ver.rtrc"
    # keep the payload offsets stable by padding the header back to size
    enc = enc.ljust(hlen, b" ")
    bad.write_bytes(STORE_MAGIC + struct.pack("<I", len(enc)) + enc
                    + raw[8 + hlen:])
    with pytest.raises(TraceError, match="version"):
        open_store(bad)


def test_missing_file_and_missing_column(tmp_path, rng):
    with pytest.raises(TraceError):
        open_store(tmp_path / "nope.rtrc")
    path = tmp_path / "one.rtrc"
    write_store(path, [("addr", np.arange(4, dtype=np.int64))], meta={})
    st = open_store(path)
    with pytest.raises(TraceError, match="column"):
        st["is_write"]


# -------------------------------------------------------- streamed merging


def _window_cases(rng):
    """A three-thread program, a one-thread program and an empty one."""
    empty = ProgramTrace([ThreadTrace(np.empty(0, np.int64),
                                      np.empty(0, bool)) for _ in range(2)])
    return [_random_program(rng), _random_program(rng, nthreads=1), empty]


def _whole_order(prog):
    """The merged order as at most one window covering the whole trace."""
    longest = max(t.n_accesses for t in prog.threads)
    pieces = list(interleave_stream(
        prog, max_accesses=prog.nthreads * (longest + DEFAULT_CHUNK)))
    assert len(pieces) == (1 if longest else 0)
    return pieces


def _assert_same_result(a, b):
    assert a.counts == b.counts
    assert a.cycles_per_core == b.cycles_per_core
    assert a.instructions_per_core == b.instructions_per_core
    assert a.seconds == b.seconds
    assert a.hitm_samples == b.hitm_samples
    assert (a.name, a.meta) == (b.name, b.meta)


@pytest.mark.parametrize("max_accesses", [64, 333, 1 << 20])
def test_interleave_stream_matches_monolithic(tmp_path, rng, max_accesses):
    for prog in _window_cases(rng):
        whole = _whole_order(prog)
        pieces = list(interleave_stream(prog, max_accesses=max_accesses))
        assert sum(len(p) for p in pieces) == prog.total_accesses
        for col in ("core", "addr", "is_write"):
            joined = [getattr(p, col) for p in pieces]
            assert np.array_equal(
                np.concatenate(joined) if joined else joined,
                getattr(whole[0], col) if whole else [])
        # The drive is window-size invariant: whole runs, and time slices
        # whose bounds fall inside windows (3 slices over ~900 accesses
        # against 60- and 324-access windows).
        for fast in (False, True):
            def machine():
                return MulticoreMachine(SMALL_SPEC, fast=fast,
                                        hitm_sample_period=3)

            _assert_same_result(
                machine().run(prog, max_accesses=max_accesses),
                machine().run(prog))
            sliced = machine().run_sliced(prog, 3, max_accesses=max_accesses)
            whole = machine().run_sliced(prog, 3)
            assert len(sliced) == len(whole) == 3
            for a, b in zip(sliced, whole):
                _assert_same_result(a, b)


def test_interleave_stream_single_thread(rng):
    prog = ProgramTrace([ThreadTrace(
        rng.integers(0, 1 << 12, size=500, dtype=np.int64),
        rng.random(500) < 0.3)])
    (whole,) = _whole_order(prog)
    pieces = list(interleave_stream(prog, max_accesses=128))
    assert len(pieces) == 4
    assert np.array_equal(np.concatenate([p.addr for p in pieces]), whole.addr)
    assert np.array_equal(whole.addr, prog.threads[0].addrs)
    _assert_same_result(
        MulticoreMachine(SMALL_SPEC).run(prog, max_accesses=128),
        MulticoreMachine(SMALL_SPEC).run(prog))


def test_run_stream_is_bit_identical_to_run(tmp_path, rng):
    prog = _random_program(rng, nthreads=4, max_len=2000)
    prog.to_file(tmp_path / "p.rtrc")
    mapped = ProgramTrace.open_mmap(tmp_path / "p.rtrc")
    ref = MulticoreMachine(SMALL_SPEC, fast=True).run(prog)
    for max_accesses in (256, 4096):
        res = MulticoreMachine(SMALL_SPEC, fast=True).run(
            mapped, max_accesses=max_accesses)
        assert res.counts == ref.counts
        assert res.cycles_per_core == ref.cycles_per_core
        assert res.instructions_per_core == ref.instructions_per_core
        assert res.seconds == ref.seconds
        assert res.hitm_samples == ref.hitm_samples


def test_run_stream_populates_path_accesses(rng):
    prog = _random_program(rng, nthreads=2, max_len=3000)
    m = MulticoreMachine(SMALL_SPEC, fast=True)
    m.run(prog, max_accesses=512)
    assert sum(m.path_accesses.values()) == prog.total_accesses
    assert set(m.path_accesses) == set(m.path_counts)


# ------------------------------------------------------- store consumers


def test_lab_simulate_store_keys_on_digest(tmp_path, rng):
    from repro.core.lab import Lab

    prog = _random_program(rng, nthreads=2, max_len=800)
    p1 = tmp_path / "a" / "trace.rtrc"
    p2 = tmp_path / "b" / "renamed.rtrc"
    prog.to_file(p1)
    prog.to_file(p2)
    lab = Lab(spec=SMALL_SPEC, disk_cache=None)
    res = lab.simulate_store(p1)
    assert lab.cache_size() == 1
    # A renamed copy with identical bytes is the same cache entry.
    assert lab.simulate_store(p2) is res
    assert lab.cache_size() == 1
    # And the drive off the memmap agrees with a plain in-memory run,
    # also when the store is driven in small windows.
    direct = lab.machine.run(prog, chunk=lab.chunk)
    assert res.counts == direct.counts
    assert res.cycles_per_core == direct.cycles_per_core
    windowed = lab.machine.run(open_program(p1), chunk=lab.chunk,
                               max_accesses=64)
    assert windowed.counts == res.counts


def test_engine_simulate_stores_reports_worker_rss(tmp_path, rng):
    from repro.coherence.timing import DEFAULT_LATENCY
    from repro.parallel import ExecutionEngine

    prog = _random_program(rng, nthreads=2, max_len=800)
    path = tmp_path / "p.rtrc"
    prog.to_file(path)
    engine = ExecutionEngine(jobs=1)  # serial: same code path, no forks
    pairs = engine.simulate_stores([path, path], SMALL_SPEC,
                                   latency=DEFAULT_LATENCY)
    assert len(pairs) == 2
    direct = MulticoreMachine(SMALL_SPEC, fast=True).run(prog)
    for result, rss_kib in pairs:
        assert result.counts == direct.counts
        assert isinstance(rss_kib, int) and rss_kib > 0


def test_shadow_run_store_matches_in_memory(tmp_path, rng, monkeypatch):
    from repro.baselines import shadow
    from repro.baselines.shadow import ShadowMemoryDetector

    prog = _random_program(rng, nthreads=3, max_len=800)
    path = tmp_path / "p.rtrc"
    prog.to_file(path)
    det = ShadowMemoryDetector(track_lines=True)
    mem = det.run(prog)
    st = det.run_store(path)
    assert st.counts == mem.counts
    assert st.per_line == mem.per_line
    # A 64-row window streams the store in dozens of windows, same report.
    monkeypatch.setattr(shadow, "DEFAULT_SEGMENT", 64)
    small = det.run_store(path)
    assert small.counts == mem.counts
    assert small.per_line == mem.per_line


def test_context_shadow_report_store_caches_by_digest(tmp_path, rng):
    from repro.core.lab import Lab
    from repro.experiments.context import PipelineContext

    prog = _random_program(rng, nthreads=2, max_len=800)
    p1 = tmp_path / "one.rtrc"
    p2 = tmp_path / "two.rtrc"
    prog.to_file(p1)
    prog.to_file(p2)
    ctx = PipelineContext(lab=Lab(spec=SMALL_SPEC, disk_cache=None))
    rep1 = ctx.shadow_report_store(p1)
    assert len(ctx.shadow_cache) == 1
    rep2 = ctx.shadow_report_store(p2)  # identical bytes: cache hit
    assert len(ctx.shadow_cache) == 1
    assert (rep1.fs_misses, rep1.ts_misses, rep1.cold_misses,
            rep1.instructions) == (rep2.fs_misses, rep2.ts_misses,
                                   rep2.cold_misses, rep2.instructions)
    assert rep2.nthreads == prog.nthreads
    direct = ctx.shadow.run(prog)
    assert rep1.fs_misses == direct.fs_misses
    assert rep1.instructions == direct.instructions


@pytest.mark.skipif(not os.environ.get("REPRO_BIG_TRACE"),
                    reason="set REPRO_BIG_TRACE=1 to run the 2GB drive")
def test_two_gigabyte_trace_streams_end_to_end(tmp_path):
    # ~2.1 GB on disk: 2 threads x 120M accesses x (8B addr + 1B write).
    # The assertion of interest is completion under memmap streaming —
    # the merged order is never materialized, only DEFAULT_SEGMENT rows.
    per = 120_000_000
    rng = np.random.default_rng(7)
    threads = []
    for t in range(2):
        addrs = (np.arange(per, dtype=np.int64) % (1 << 12)) << 6
        writes = np.zeros(per, dtype=bool)
        writes[t::7] = True
        threads.append(ThreadTrace(addrs, writes))
    prog = ProgramTrace(threads, name="big")
    path = tmp_path / "big.rtrc"
    prog.to_file(path)
    assert path.stat().st_size > 2 * (1 << 30)
    del prog, threads, addrs, writes
    mapped = ProgramTrace.open_mmap(path)
    res = MulticoreMachine(SMALL_SPEC, fast=True).run(mapped)
    assert res.counts["INST_RETIRED.ANY"] > 0
