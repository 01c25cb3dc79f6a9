"""The on-disk result caches are versioned, validated and safe to share.

A stale pickle — produced by an older simulator (different trace semantics)
or an older oracle (different classification rules) — must be discarded, not
silently reused.  The cache file name carries the versions and the payload
is stamped with them, so even a file surviving a rename scheme change is
validated before use.

Both owners of a :class:`repro.cache.ResultCache` — the ``Lab``'s ``"sim"``
cache and the ``PipelineContext``'s ``"shadow"`` cache — go through every
robustness case below (``CACHES``): each test checks both, under its
original name.
"""

from __future__ import annotations

import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.cache import ResultCache
from repro.coherence.machine import SCALED_WESTMERE, SimulationResult
from repro.core.lab import Lab
from repro.experiments.context import PipelineContext, _valid_shadow_entry
from repro.telemetry.core import TELEMETRY
from repro.trace.access import ThreadTrace
from repro.suites import get_program
from repro.suites.base import SuiteCase, SuiteProgram
from repro.versioning import SHADOW_VERSION, SIM_VERSION

KEY = ("some_program", "simsmall", "-O2", 4)
COUNTS = (11, 22, 33, 44)
RESULT = SimulationResult(
    counts={"INST_RETIRED.ANY": 1.0e6}, cycles_per_core=[1.0, 2.0],
    instructions_per_core=[5, 6], seconds=0.5, nthreads=2,
    spec=SCALED_WESTMERE, name="some_program",
)

#: Per cache: its current version stamp, a valid entry, a second valid
#: entry in another accepted form, and how that second one reads back.
CACHES = {
    "sim": ((SIM_VERSION,), RESULT, RESULT, RESULT),
    "shadow": ((SIM_VERSION, SHADOW_VERSION), COUNTS, list(COUNTS), COUNTS),
}


@pytest.fixture
def cache_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    return tmp_path


@pytest.fixture
def telemetry():
    TELEMETRY.enable(reset=True)
    yield TELEMETRY
    TELEMETRY.disable()
    TELEMETRY.reset()


def _ctx():
    return PipelineContext(lab=Lab(), jobs=1)


def _cache(kind) -> ResultCache:
    """A fresh owner's cache of ``kind`` over the current cache dir."""
    ctx = _ctx()
    return ctx.lab.sim_cache if kind == "sim" else ctx.shadow_cache


def _write(kind, payload):
    path = _cache(kind).path
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as fh:
        pickle.dump(payload, fh)


def _write_payload(kind, entries):
    _write(kind, {"versions": CACHES[kind][0], "entries": entries})


def test_cache_file_keyed_on_both_versions(cache_dir):
    ctx = _ctx()
    assert SIM_VERSION in ctx.shadow_cache.path.name
    assert SHADOW_VERSION in ctx.shadow_cache.path.name
    assert SIM_VERSION in ctx.lab.sim_cache.path.name


def test_roundtrip_with_matching_versions(cache_dir):
    for kind, (_, value, _, _) in CACHES.items():
        cache = _cache(kind)
        cache.update([(KEY, value)])
        cache.flush()
        assert _cache(kind)._entries == {KEY: value}, kind


def test_stale_version_stamp_discarded(cache_dir, telemetry):
    for kind, (_, value, _, _) in CACHES.items():
        _write(kind, {"versions": ("v0", "s0"), "entries": {KEY: value}})
        assert _cache(kind)._entries == {}, kind
        assert telemetry.counters[f"{kind}.cache.invalidated"] == 1


def test_legacy_bare_dict_discarded(cache_dir, telemetry):
    # Both owners used to write a bare {key: entry} dict; the Lab even
    # loaded one back without any version check.
    for kind, (_, value, _, _) in CACHES.items():
        _write(kind, {KEY: value})
        assert _cache(kind)._entries == {}, kind
        assert telemetry.counters[f"{kind}.cache.invalidated"] == 1


def test_corrupt_file_discarded(cache_dir, telemetry):
    for kind in CACHES:
        path = _cache(kind).path
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(b"not a pickle")
        assert _cache(kind)._entries == {}, kind
        assert telemetry.counters[f"{kind}.cache.corrupt_files"] == 1


def test_disk_cache_disabled_has_no_path(cache_dir):
    ctx = PipelineContext(lab=Lab(disk_cache=None), jobs=1)
    assert ctx.shadow_cache.path is None
    assert ctx.lab.sim_cache.path is None
    ctx.shadow_cache.update([(KEY, COUNTS)])
    ctx.shadow_cache.flush()  # must be a no-op, not an error
    ctx.lab.flush()
    assert list(cache_dir.iterdir()) == []


# ------------------------------------------------- corruption regression
#
# A corrupted or partially-written cache is an accelerator failure, never a
# pipeline failure: load must log, drop the bad data, and let the owner
# recompute.


def test_valid_shadow_entry_predicate():
    assert _valid_shadow_entry((1, 2, 3, 4))
    assert _valid_shadow_entry([0, 0, 0, 0])
    assert not _valid_shadow_entry((1, 2, 3))          # wrong arity
    assert not _valid_shadow_entry((1, 2, 3, 4, 5))
    assert not _valid_shadow_entry((1.0, 2, 3, 4))     # non-int count
    assert not _valid_shadow_entry((True, 2, 3, 4))    # bool is not a count
    assert not _valid_shadow_entry("1234")
    assert not _valid_shadow_entry(None)


def test_mangled_entries_dropped_valid_kept(cache_dir, caplog, telemetry):
    other = ("other_program", "simlarge", "-O0", 2)
    mangled = {
        ("short",): (1, 2, 3),
        ("floats",): (1.0, 2, 3, 4),
        ("none",): None,
        ("text",): "11,22,33,44",
    }
    for kind, (_, value, alt, alt_read) in CACHES.items():
        caplog.clear()
        _write_payload(kind, {KEY: value, other: alt, **mangled})
        with caplog.at_level("WARNING"):
            fresh = _cache(kind)
        # Valid entries survive (oracle lists normalized to tuples);
        # mangled ones are dropped — and will simply be recomputed on
        # first use.
        assert fresh._entries == {KEY: value, other: alt_read}, kind
        assert "dropped 4 mangled entries" in caplog.text
        assert telemetry.counters[f"{kind}.cache.dropped_entries"] == 4


def test_truncated_cache_file_is_a_miss(cache_dir, caplog):
    for kind, (_, value, _, _) in CACHES.items():
        caplog.clear()
        cache = _cache(kind)
        cache.update([(KEY, value)])
        cache.flush()
        data = cache.path.read_bytes()
        cache.path.write_bytes(data[: len(data) // 2])
        with caplog.at_level("WARNING"):
            fresh = _cache(kind)
        assert fresh._entries == {}, kind
        assert "unreadable" in caplog.text


def test_non_mapping_entries_discarded(cache_dir):
    for kind, (versions, _, _, _) in CACHES.items():
        _write(kind, {"versions": versions, "entries": [KEY]})
        assert _cache(kind)._entries == {}, kind


class _StubProgram(SuiteProgram):
    name = "zz-stub-shadow"
    inputs = ("x",)
    opts = ("-O2",)
    threads = (2,)

    def _generate(self, case):
        addrs = np.arange(64, dtype=np.int64) * 8
        return [ThreadTrace(addrs.copy(), np.zeros(64, dtype=bool))
                for _ in range(case.threads)]


def test_read_time_mangled_entry_recomputed_not_raised(cache_dir, caplog):
    ctx = PipelineContext(lab=Lab(disk_cache=None), jobs=1)
    prog = _StubProgram()
    case = SuiteCase("x", "-O2", 2)
    key = (prog.name,) + tuple(prog.cache_key(case))
    ctx.shadow_cache.update([(key, ("oops", None))])  # mangled after load
    with caplog.at_level("WARNING"):
        rep = ctx.shadow_report(prog, case)
    assert "mangled" in caplog.text
    assert isinstance(rep.instructions, int) and rep.instructions > 0
    # The recomputed entry replaced the mangled one.
    assert _valid_shadow_entry(ctx.shadow_cache._entries[key])
    # A second read is now a clean hit with identical counts.
    rep2 = ctx.shadow_report(prog, case)
    assert (rep2.fs_misses, rep2.ts_misses, rep2.cold_misses) == (
        rep.fs_misses, rep.ts_misses, rep.cold_misses)


# ------------------------------------------------------ explicit paths


def test_unstamped_explicit_path_file_is_invalidated(tmp_path, telemetry):
    path = tmp_path / "cache.pkl"
    with open(path, "wb") as fh:
        pickle.dump({KEY + (1,): RESULT}, fh)  # the old Lab file format
    assert Lab(disk_cache=path).cache_size() == 0
    assert telemetry.counters["sim.cache.invalidated"] == 1


def test_explicit_path_puts_both_caches_in_its_directory(tmp_path):
    ctx = PipelineContext(lab=Lab(disk_cache=tmp_path / "d" / "sim.pkl"))
    assert ctx.lab.sim_cache.path == tmp_path / "d" / "sim.pkl"
    assert ctx.shadow_cache.path.parent == tmp_path / "d"


def test_cold_and_warm_runs_are_bit_identical(cache_dir):
    prog = get_program("fluidanimate")
    case = SuiteCase("simsmall", "-O1", 4)

    def run():
        ctx = PipelineContext(lab=Lab(), jobs=1)
        sim = ctx.lab.simulate(prog, case)
        rep = ctx.shadow_report(prog, case)
        ctx.lab.flush()
        ctx.shadow_cache.flush()
        return ctx, sim, rep

    cold_ctx, cold, cold_rep = run()
    warm_ctx, warm, warm_rep = run()
    assert len(warm_ctx.lab.sim_cache) == len(warm_ctx.shadow_cache) == 1
    assert warm is not cold  # the warm run read it back from disk
    assert warm.counts == cold.counts
    assert warm.cycles_per_core == cold.cycles_per_core
    assert warm_rep == cold_rep
    assert cold.counts == Lab(disk_cache=None).simulate(prog, case).counts


# ------------------------------------------------- where the cache lives


def test_default_location_is_per_user(monkeypatch, tmp_path):
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    monkeypatch.setenv("HOME", str(tmp_path))
    path = Lab().sim_cache.path
    assert path.parent == tmp_path / ".cache" / "repro"


def test_world_writable_directory_refused(cache_dir, caplog, telemetry):
    for kind, (_, value, _, _) in CACHES.items():
        cache = _cache(kind)
        cache.update([(KEY, value)])
        cache.flush()
    os.chmod(cache_dir, 0o777)
    try:
        with caplog.at_level("WARNING"):
            ctx = _ctx()
        # The oracle cache lives beside the simulation cache, so refusing
        # the directory leaves both uncached.
        for cache in (ctx.lab.sim_cache, ctx.shadow_cache):
            assert cache._entries == {} and cache.path is None
        assert telemetry.counters["sim.cache.untrusted"] == 1
        assert "group- or world-writable" in caplog.text
        ctx.lab.simulate(_StubProgram(), SuiteCase("x", "-O2", 2))
        ctx.lab.flush()  # writes nothing into the refused directory
    finally:
        os.chmod(cache_dir, 0o700)
    assert _cache("sim")._entries == {KEY: RESULT}


def test_group_writable_file_refused(cache_dir, monkeypatch, telemetry):
    for kind, (_, value, _, _) in CACHES.items():
        monkeypatch.setenv("REPRO_CACHE_DIR", str(cache_dir / kind))
        cache = _cache(kind)
        cache.update([(KEY, value)])
        cache.flush()
        os.chmod(cache.path, 0o664)
        assert _cache(kind)._entries == {}, kind
        assert telemetry.counters[f"{kind}.cache.untrusted"] == 1


# -------------------------------------------------------------- flushing


_FLUSHER = """
import sys
from repro.cache import ResultCache
cache = ResultCache("sim", ("v",), lambda v: v, sys.argv[1])
print("ready", flush=True)
sys.stdin.readline()  # both writers start together
for i in range(200):
    cache.update([((sys.argv[2], i), bytes(2000))])
    cache.flush()
    assert cache.path is not None, "a flush failed"
"""


def test_concurrent_flushes_never_fail(tmp_path):
    path = tmp_path / "shared.pkl"
    env = {**os.environ,
           "PYTHONPATH": str(Path(repro.__file__).resolve().parents[1])}
    procs = [subprocess.Popen([sys.executable, "-c", _FLUSHER, str(path), tag],
                              env=env, stdin=subprocess.PIPE,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True)
             for tag in ("a", "b")]
    try:
        for proc in procs:
            assert proc.stdout.readline() == "ready\n"
        for proc in procs:
            proc.stdin.write("go\n")
            proc.stdin.flush()
        for proc in procs:
            _, err = proc.communicate(timeout=120)
            assert proc.returncode == 0, err
    finally:
        for proc in procs:
            proc.kill()
            proc.wait(timeout=10)
    # The file loads, and holds the last writer's complete view.
    final = ResultCache("sim", ("v",), lambda v: v, path)
    tags = [tag for tag, _ in final._entries]
    assert max(tags.count("a"), tags.count("b")) == 200
    assert not list(tmp_path.glob("*.tmp"))


def test_unwritable_cache_warns_once_and_runs_uncached(tmp_path, caplog):
    blocker = tmp_path / "not-a-dir"
    blocker.write_text("")
    cache = ResultCache("sim", ("v",), lambda v: v, blocker / "cache.pkl")
    with caplog.at_level("WARNING"):
        for i in range(3):
            cache.update([(i, i)])
            cache.flush()
    assert cache.path is None
    assert caplog.text.count("not writable") == 1
    assert cache.get_or_compute(0, lambda: -1) == 0  # still cached in memory
