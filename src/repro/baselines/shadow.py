"""Shadow-memory cache-contention detection (Zhao et al., VEE'11 [33]).

This is the paper's verification oracle.  It tracks, per cache line, which
threads hold a copy and which 4-byte slots of the line each thread has
touched during its holding period.  A write invalidates other holders; when
an invalidated thread touches the line again it suffers a *contention miss*,
classified as **false sharing** when the invalidating writes touched only
slots disjoint from the victim's, and **true sharing** otherwise.

The reported metric is the paper's: ``false sharing rate = false-sharing
misses / instructions executed``, with rate > 1e-3 meaning false sharing is
present.  Faithfully to [33], the tool refuses more than 8 threads and slows
the monitored program down about 5x.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.coherence import native
from repro.errors import BaselineError, TraceError
from repro.trace.access import ProgramTrace
from repro.trace.streams import (DEFAULT_CHUNK, DEFAULT_SEGMENT,
                                 interleave_stream)

#: [33]'s decision threshold on the false-sharing rate.
FS_RATE_THRESHOLD = 1e-3

#: [33]'s instrumentation cannot shadow more than 8 threads.
MAX_THREADS = 8

#: Reported slowdown of the dynamic-instrumentation approach.
SLOWDOWN = 5.0


@dataclass
class ShadowReport:
    """Outcome of one shadowed run.

    ``per_line`` maps each cache line with a contention miss to its
    ``(fs_misses, ts_misses)`` counts — line-level attribution from the
    instrumentation-based tool, comparable against the sampling-based
    c2c report.
    """

    fs_misses: int
    ts_misses: int
    cold_misses: int
    instructions: int
    nthreads: int
    per_line: Dict[int, tuple]

    def hottest_fs_lines(self, n: int = 8):
        """Lines with the most false-sharing misses, hottest first."""
        items = [(line, fs, ts) for line, (fs, ts) in self.per_line.items()
                 if fs > 0]
        items.sort(key=lambda x: (-x[1], x[0]))
        return items[:n]

    @property
    def counts(self) -> Tuple[int, int, int, int]:
        """The fs, ts and cold misses and the instructions executed."""
        return (self.fs_misses, self.ts_misses, self.cold_misses,
                self.instructions)

    @property
    def fs_rate(self) -> float:
        """False-sharing misses per instruction (the paper's rate)."""
        if self.instructions <= 0:
            raise BaselineError("no instructions executed")
        return self.fs_misses / self.instructions

    @property
    def has_false_sharing(self) -> bool:
        """[33]'s verdict: rate above 1e-3."""
        return self.fs_rate > FS_RATE_THRESHOLD


class ShadowMemoryDetector:
    """Word-granular (4-byte slot) sharing analysis over a program trace.

    :meth:`_walk_ref` is the spec: one Python iteration per access of the
    chunked round-robin order, over
    :func:`~repro.trace.streams.interleave_stream` windows of
    ``DEFAULT_SEGMENT`` rows, with the shadow state carried over each
    window edge.  ``fast=False`` runs it on the whole trace.

    ``fast=True`` (the default) first drops the **private lines** with
    numpy: shadow state is per cache line, so a line touched by a single
    thread can never see an invalidation, and its whole access stream
    contributes exactly one cold miss (added back arithmetically).  Each
    thread's accesses are mapped to a dense shared-line index (-1 for a
    private line), and ``shadow.c``, built and loaded by
    :mod:`repro.coherence.native` with the compiled drive, walks the same
    round-robin order over the per-thread columns with the spec's state
    machine on the shared lines.  A private line's accesses never touch a
    shared line's state, so every miss decision is the spec's and the
    report is bit-identical.  Without a C compiler ``fast=True`` runs the
    spec, as :class:`~repro.coherence.machine.MulticoreMachine` does.
    """

    def __init__(self, fast: bool = True) -> None:
        if not isinstance(fast, bool):
            raise BaselineError(f"fast must be a bool, got {fast!r}")
        self.fast = fast
        #: Which loop the most recent :meth:`run` took: ``'native'`` (the
        #: compiled walk) or ``'ref'`` (the Python spec, also when
        #: ``fast=True`` found no C compiler); ``None`` before the first.
        self.path: Optional[str] = None

    def run(
        self, program: ProgramTrace, chunk: int = DEFAULT_CHUNK
    ) -> ShadowReport:
        nt = program.nthreads
        if nt > MAX_THREADS:
            raise BaselineError(
                f"shadow tool handles at most {MAX_THREADS} threads; "
                f"program has {nt} (same limitation as [33])"
            )
        if chunk <= 0:
            raise TraceError("chunk must be positive")
        lib = native.load() if self.fast else None
        self.path = "ref" if lib is None else "native"
        if lib is None:
            cold, per_line = self._walk_ref(program, chunk)
        else:
            cold, per_line = self._walk_native(lib, program, chunk)
        return ShadowReport(
            fs_misses=sum(fs for fs, _ in per_line.values()),
            ts_misses=sum(ts for _, ts in per_line.values()),
            cold_misses=cold,
            instructions=program.total_instructions,
            nthreads=nt,
            per_line=per_line,
        )

    @staticmethod
    def _walk_native(lib, program: ProgramTrace,
                     chunk: int) -> Tuple[int, Dict[int, tuple]]:
        """The cold misses and ``per_line``: private lines by numpy, the
        shared ones by ``shadow.c``."""
        threads = program.threads
        lines = [t.addrs >> 6 for t in threads]
        # Per-thread line sets decide which lines are shared without
        # merging the threads (sorted, since a bare np.unique hashes,
        # several times slower).
        sorted_lines = (np.sort(ln) for ln in lines)
        seen, n_threads = np.unique(np.concatenate(
            [s[np.diff(s, prepend=s[:1] - 1) != 0] for s in sorted_lines]),
            return_counts=True)
        shared = seen[n_threads > 1]
        cold = int(seen.size - shared.size)
        if not shared.size:
            return cold, {}
        index = []
        for ln in lines:
            k = np.searchsorted(shared, ln)
            k[k == shared.size] = 0
            index.append(np.where(shared[k] == ln, k, -1).astype(np.int32))
        longest = max(t.n_accesses for t in threads)
        shared_cold, fs, ts = native.shadow(
            lib, min(chunk, longest), [t.addrs for t in threads],
            [t.is_write for t in threads], index, shared.size)
        hit = np.flatnonzero(fs | ts)
        per_line = dict(zip(shared[hit].tolist(),
                            zip(fs[hit].tolist(), ts[hit].tolist())))
        return cold + shared_cold, per_line

    @staticmethod
    def _walk_ref(program: ProgramTrace,
                  chunk: int) -> Tuple[int, Dict[int, tuple]]:
        """The spec: the cold misses and ``per_line``, one access at a
        time."""
        nt = program.nthreads
        cold = 0
        holders: Dict[int, int] = {}       # line -> bitmask of holding threads
        tmasks: Dict[int, list] = {}       # line -> per-thread touched-slot mask
        # line -> per-thread invalidator slots, then the line's fs and ts
        # miss counts at nt and nt + 1 (a contention miss follows an
        # invalidation, so every counted line has a list already).
        invalmask: Dict[int, list] = {}
        fs_slot, ts_slot = nt, nt + 1
        all_zero = [0] * nt
        inval_zero = [0] * (nt + 2)

        for window in interleave_stream(program, chunk=chunk,
                                        max_accesses=DEFAULT_SEGMENT):
            for t, addr, w in zip(window.core.tolist(), window.addr.tolist(),
                                  window.is_write.tolist()):
                line = addr >> 6
                slot = 1 << ((addr >> 2) & 15)
                bit = 1 << t
                held = holders.get(line, 0)
                masks = tmasks.get(line)
                if masks is None:
                    masks = list(all_zero)
                    tmasks[line] = masks
                if not held & bit:
                    # This thread does not hold the line: a miss.
                    inv = invalmask.get(line)
                    if inv is not None and inv[t]:
                        # Invalidation-induced: false or true sharing?
                        if inv[t] & (masks[t] | slot):
                            inv[ts_slot] += 1
                        else:
                            inv[fs_slot] += 1
                        inv[t] = 0
                        masks[t] = 0  # new holding period
                    else:
                        cold += 1
                    held |= bit
                masks[t] |= slot
                if w:
                    # Invalidate all other holders, recording what we wrote.
                    others = held & ~bit
                    if others:
                        inv = invalmask.get(line)
                        if inv is None:
                            inv = list(inval_zero)
                            invalmask[line] = inv
                        for u in range(nt):
                            if others & (1 << u):
                                inv[u] |= slot
                        held = bit
                holders[line] = held
        per_line = {line: (inv[fs_slot], inv[ts_slot])
                    for line, inv in invalmask.items()
                    if inv[fs_slot] or inv[ts_slot]}
        return cold, per_line
