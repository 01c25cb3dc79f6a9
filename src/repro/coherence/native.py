"""The compiled drive loop: build ``drive.c`` once, load it with ``ctypes``.

``drive.c`` transliterates :meth:`MulticoreMachine._drive_ref` (the spec)
operation for operation, so its tallies are bit-identical (DESIGN §6).
:func:`load` builds it on the first native drive call, never at import,
with the system ``cc`` and the fixed :data:`FLAGS`, into the user cache
directory under a name that hashes the source, the flags and the platform;
a write goes through a temp file and ``os.replace``, so concurrent engine
workers never load a half-written library.  A cached library whose file or
directory another user owns or can write is never loaded: the library is
then built in a fresh private directory instead.  Without a C compiler,
:func:`load` warns once and returns None, and the machine drives with the
Python loop.

:class:`NativeRun` holds one run's machine state in numpy arrays and checks
every trace-derived value the C code indexes with before each call.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import logging
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from collections import OrderedDict
from pathlib import Path
from typing import List, Optional

import numpy as np

from repro.cache import _untrusted, default_path
from repro.errors import SimulationError

log = logging.getLogger(__name__)

SOURCE = Path(__file__).with_name("drive.c")

#: No reassociation and no fused multiply-add: the C sums round exactly
#: as Python's.
FLAGS = ("-O2", "-fno-fast-math", "-ffp-contract=off", "-std=c99",
         "-shared", "-fPIC")

#: ``_EventTallies``' integer counters, in ``drive.c``'s enum order.
EVENTS = (
    "l2_demand_i", "l2_ld_miss", "l2_ld_hit", "l2_rfo_hit_s",
    "l2_rqsts_rfo_miss", "l2_rqsts_rfo_hit", "l2_fill",
    "l2_lines_in_s", "l2_lines_in_e",
    "l2_lines_out_clean", "l2_lines_out_dirty",
    "snoop_hit", "snoop_hite", "snoop_hitm", "hitm_socket_remote",
    "offcore_rd", "offcore_rfo", "l3_hit", "l3_miss",
    "writebacks", "prefetch_hits",
)
#: ``_EventTallies``' stall-cycle sums (doubles in C).
STALLS = ("stall_store", "stall_load")
#: ``_SegmentTallies``' scalar counters, in ``drive.c``'s enum order.
SEGMENT = ("n_dtlb", "n_dtlb_st", "n_l1_miss", "n_hit_lfb", "n_rfo_s",
           "n_writes", "n_reads")
#: ``drive()``'s error codes (0 is success).
ERRORS = (None, "set_state on an absent line", "HITM sample buffer full",
          "contender table full")

_p = ctypes.c_void_p
_i = ctypes.c_int64
_d = ctypes.c_double


class _Cache(ctypes.Structure):
    _fields_ = [("line", _p), ("state", _p), ("fill", _p),
                ("nsets", _i), ("assoc", _i), ("pow2", _i)]


class _Machine(ctypes.Structure):
    _fields_ = (
        [(f, _i) for f in ("nt", "cores_per_socket", "tlb_cap", "prefetch",
                           "hitm_period", "epoch", "words")]
        + [(f, _d) for f in ("l2_hit", "l3_hit", "memory", "snoop_clean",
                             "hitm_local", "hitm_remote", "rfo_upgrade",
                             "tlb_walk_eff", "load_overlap", "store_overlap",
                             "contention_factor")]
        + [("l1", _Cache), ("l2", _Cache), ("l3", _Cache),
           ("tlb", _p), ("tlb_fill", _p), ("last_miss_line", _p),
           ("lfb_line", _p), ("lfb_window", _p), ("decay_countdown", _i),
           ("cont_line", _p), ("cont_mask", _p), ("cont_slot", _p),
           ("cont_index", _p), ("cont_slots", _i), ("cont_n", _i),
           ("hitm_seen", _i), ("last_responder", _i),
           ("ev", _p), ("stall", _p), ("penalty", _p), ("accesses", _p),
           ("seg", _p), ("samples", _p), ("n_samples", _i),
           ("cap_samples", _i), ("error", _i)]
    )


def _library_name() -> str:
    h = hashlib.sha256(SOURCE.read_bytes())
    h.update(" ".join(FLAGS).encode())
    h.update(f"{sys.platform}-{platform.machine()}".encode())
    return f"drive-{h.hexdigest()[:16]}.so"


def _compile(cc: str, dest: Path) -> None:
    """Build the library at ``dest`` through a temp file of this build's own."""
    fd, tmp = tempfile.mkstemp(dir=dest.parent, prefix=dest.name,
                               suffix=".tmp")
    os.close(fd)
    try:
        subprocess.run([cc, *FLAGS, "-o", tmp, str(SOURCE)], check=True,
                       capture_output=True, text=True, timeout=300)
        os.chmod(tmp, 0o700)
        os.replace(tmp, dest)
    except BaseException:
        Path(tmp).unlink(missing_ok=True)
        raise


def _bind(path: Path) -> ctypes.CDLL:
    lib = ctypes.CDLL(str(path))
    lib.drive.argtypes = [ctypes.POINTER(_Machine), _p, _p, _p, _i]
    lib.drive.restype = _i
    return lib


@functools.lru_cache(maxsize=None)
def load() -> Optional[ctypes.CDLL]:
    """The compiled drive library, built on first use; None without ``cc``."""
    path = default_path(_library_name())
    if path.is_file() and _untrusted(path) is None:
        try:
            return _bind(path)
        except OSError as exc:
            log.warning("cannot load %s (%s); rebuilding it", path, exc)
    cc = shutil.which("cc")
    if cc is None:
        log.warning("no C compiler (cc) on PATH: the simulator drives with "
                    "the Python reference loop")
        return None
    try:
        path.parent.mkdir(mode=0o700, parents=True, exist_ok=True)
        untrusted = _untrusted(path)
    except OSError as exc:
        untrusted = str(exc)
    try:
        if untrusted is None:
            _compile(cc, path)
            return _bind(path)
        log.warning("%s: building the drive library in a private directory",
                    untrusted)
        with tempfile.TemporaryDirectory() as private:
            # The loaded mapping outlives the file.
            _compile(cc, Path(private) / path.name)
            return _bind(Path(private) / path.name)
    except (OSError, subprocess.SubprocessError) as exc:
        detail = getattr(exc, "stderr", "") or exc
        log.warning("building %s failed: %s; the simulator drives with the "
                    "Python reference loop", SOURCE.name, detail)
        return None


def _cache_arrays(caches):
    """Arrays and the ``Cache`` struct for one level of same-shape caches."""
    first = caches[0]
    shape = (len(caches), first.nsets, first.assoc)
    arrays = (np.zeros(shape, np.int64), np.zeros(shape, np.int8),
              np.zeros(shape[:2], np.int32))
    pow2 = not first.nsets & (first.nsets - 1)
    return arrays, _Cache(*(a.ctypes.data for a in arrays), first.nsets,
                          first.assoc, int(pow2))


def _export_cache(arrays, caches) -> None:
    """Refill the Python caches' sets, LRU order included."""
    line, state, fill = arrays
    for k, cache in enumerate(caches):
        for s, entries in enumerate(cache.sets):
            entries.clear()
            n = int(fill[k, s])
            entries.update(zip(line[k, s, :n].tolist(),
                               state[k, s, :n].tolist()))


class NativeRun:
    """One run's machine state in arrays, advanced window by window in C.

    Built right after :meth:`MulticoreMachine._setup_run`, whose empty
    caches give the geometry; ``state`` is the run's ``_RunState``.
    :meth:`export` writes the final state back into those Python objects.
    """

    def __init__(self, lib: ctypes.CDLL, machine, state, epoch: int) -> None:
        spec, lat = machine.spec, machine.latency
        nt = machine._nt
        if not 0 < nt < 2 ** 15:
            raise SimulationError(f"the compiled drive takes 1..32767 "
                                  f"threads, got {nt}")
        l1_sets = machine._l1[0].nsets
        if l1_sets & (l1_sets - 1):
            raise SimulationError("L1 set count must be a power of two")
        self.lib = lib
        self.nt = nt
        self.period = machine.hitm_sample_period
        self._l1, l1 = _cache_arrays(machine._l1)
        self._l2, l2 = _cache_arrays(machine._l2)
        self._l3, l3 = _cache_arrays([machine._l3])
        self.tlb = np.zeros((nt, state.tlb_cap), np.int64)
        self.tlb_fill = np.zeros(nt, np.int32)
        self.last_miss_line = np.array(state.last_miss_line, np.int64)
        self.lfb_line = np.array(state.lfb_line, np.int64)
        self.lfb_window = np.array(state.lfb_window, np.int64)
        words = (nt + 63) // 64
        slots = 1 << (2 * epoch - 1).bit_length()
        self.cont_line = np.zeros(epoch, np.int64)
        self.cont_mask = np.zeros((epoch, words), np.uint64)
        self.cont_slot = np.zeros(epoch, np.int32)
        self.cont_index = np.full(slots, -1, np.int32)
        self.ev = np.zeros(len(EVENTS), np.int64)
        self.stall = np.zeros(len(STALLS), np.float64)
        self.penalty = np.zeros(nt, np.float64)
        self.accesses = np.zeros(nt, np.int64)
        self.seg = np.zeros(len(SEGMENT), np.int64)
        self.m = _Machine(
            nt=nt, cores_per_socket=spec.cores_per_socket,
            tlb_cap=state.tlb_cap, prefetch=int(bool(machine.prefetch)),
            hitm_period=self.period, epoch=epoch, words=words,
            l2_hit=lat.l2_hit, l3_hit=lat.l3_hit, memory=lat.memory,
            snoop_clean=lat.snoop_clean, hitm_local=lat.hitm_local,
            hitm_remote=lat.hitm_remote, rfo_upgrade=lat.rfo_upgrade,
            tlb_walk_eff=lat.tlb_walk * 0.5,
            load_overlap=lat.load_overlap, store_overlap=lat.store_overlap,
            contention_factor=lat.contention_factor,
            l1=l1, l2=l2, l3=l3,
            decay_countdown=state.decay_countdown,
            cont_slots=slots, cont_n=0, hitm_seen=0, last_responder=-1,
        )
        for name in ("tlb", "tlb_fill", "last_miss_line", "lfb_line",
                     "lfb_window", "cont_line", "cont_mask", "cont_slot",
                     "cont_index", "ev", "stall", "penalty", "accesses",
                     "seg"):
            setattr(self.m, name, getattr(self, name).ctypes.data)

    def drive(self, cores, addrs, writes, seg) -> List[tuple]:
        """Advance the run over one piece of the merged order into ``seg``
        (a ``_SegmentTallies``); returns the piece's HITM samples."""
        cores, addrs, writes = (np.asarray(cores), np.asarray(addrs),
                                np.asarray(writes))
        n = len(cores)
        if not (cores.ndim == addrs.ndim == writes.ndim == 1
                and len(addrs) == len(writes) == n):
            raise SimulationError("drive columns must be 1-D and of equal "
                                  "length")
        if cores.dtype.kind not in "iu" or addrs.dtype.kind not in "iu":
            raise SimulationError("core and address columns must be integers")
        if n and (int(cores.min()) < 0 or int(cores.max()) >= self.nt):
            raise SimulationError(f"core ids must lie in [0, {self.nt})")
        cores = np.ascontiguousarray(cores, dtype=np.int16)
        addrs = np.ascontiguousarray(addrs, dtype=np.int64)
        writes = np.ascontiguousarray(writes, dtype=np.bool_).view(np.uint8)

        ev = seg.ev
        self.ev[:] = [getattr(ev, f) for f in EVENTS]
        self.stall[:] = [getattr(ev, f) for f in STALLS]
        self.penalty[:] = seg.penalty
        self.accesses[:] = seg.accesses
        self.seg[:] = [getattr(seg, f) for f in SEGMENT]
        # One snoop per access at most, and a sample every period-th HITM.
        samples = np.zeros((n // self.period + 1 if self.period else 0, 4),
                           np.int64)
        m = self.m
        m.samples, m.cap_samples, m.n_samples = (samples.ctypes.data,
                                                 len(samples), 0)
        rc = self.lib.drive(ctypes.byref(m), cores.ctypes.data,
                            addrs.ctypes.data, writes.ctypes.data, n)
        if rc:
            raise SimulationError(f"compiled drive: {ERRORS[rc]}")
        for f, v in zip(EVENTS, self.ev.tolist()):
            setattr(ev, f, v)
        for f, v in zip(STALLS, self.stall.tolist()):
            setattr(ev, f, v)
        seg.penalty[:] = self.penalty.tolist()
        seg.accesses[:] = self.accesses.tolist()
        for f, v in zip(SEGMENT, self.seg.tolist()):
            setattr(seg, f, v)
        return [(c, h, a, bool(w))
                for c, h, a, w in samples[:m.n_samples].tolist()]

    def export(self, machine, state) -> None:
        """Write the final caches, TLBs, per-core state and contenders back
        into ``machine`` and ``state`` (``run(..., keep_state=True)``)."""
        _export_cache(self._l1, machine._l1)
        _export_cache(self._l2, machine._l2)
        _export_cache(self._l3, [machine._l3])
        state.tlbs = [OrderedDict.fromkeys(self.tlb[c, :n].tolist())
                      for c, n in enumerate(self.tlb_fill.tolist())]
        state.last_miss_line = self.last_miss_line.tolist()
        state.lfb_line = self.lfb_line.tolist()
        state.lfb_window = self.lfb_window.tolist()
        state.decay_countdown = self.m.decay_countdown
        machine._contenders = {
            line: sum(w << (64 * i) for i, w in enumerate(words))
            for line, words in zip(self.cont_line[:self.m.cont_n].tolist(),
                                   self.cont_mask[:self.m.cont_n].tolist())}
        machine._hitm_seen = self.m.hitm_seen
