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

from repro.errors import BaselineError
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

    ``fast=True`` (the default) pre-filters the trace with numpy before the
    scalar state machine runs, using two exact reductions:

    * **private lines** — shadow state is per cache line, so a line touched
      by a single thread can never see an invalidation: its whole access
      stream contributes exactly one cold miss and is dropped (the miss is
      added back arithmetically).  Streaming workloads are dominated by
      thread-private data, so this removes most of the trace.
    * **repeated words** — an access is a shadow-state no-op when its
      predecessor in the filtered stream is the *same thread* touching the
      *same 4-byte word* and the access is a read or follows a write: the
      thread already holds the line, the slot bit is already set, and a
      repeated write finds no other holders left to invalidate.  Dropped
      private-line accesses cannot hide an intervening invalidation, since
      they never touch a shared line's state.

    Every miss-classification decision therefore survives unchanged, so the
    filtered run is bit-identical to the reference one.

    Both paths walk :func:`~repro.trace.streams.interleave_stream` windows
    of ``DEFAULT_SEGMENT`` rows; shadow state and the repeated-word
    filter's predecessor carry over each window edge, so the report does
    not depend on the window size.
    """

    def __init__(self, fast: bool = True) -> None:
        if not isinstance(fast, bool):
            raise BaselineError(f"fast must be a bool, got {fast!r}")
        self.fast = fast

    def run(
        self, program: ProgramTrace, chunk: int = DEFAULT_CHUNK
    ) -> ShadowReport:
        nt = program.nthreads
        if nt > MAX_THREADS:
            raise BaselineError(
                f"shadow tool handles at most {MAX_THREADS} threads; "
                f"program has {nt} (same limitation as [33])"
            )
        shared: Optional[np.ndarray] = None
        cold = 0
        if self.fast:
            # Drop every access to a line only one thread ever touches: it
            # yields exactly one cold miss and cannot affect shared lines.
            # Per-thread line sets decide this without merging the threads
            # (sorted, since a bare np.unique hashes, several times slower).
            sorted_lines = (np.sort(t.addrs >> 6) for t in program.threads)
            lines, n_threads = np.unique(np.concatenate(
                [s[np.diff(s, prepend=s[:1] - 1) != 0] for s in sorted_lines]),
                return_counts=True)
            shared = lines[n_threads > 1]
            cold = int(lines.size - shared.size)
        # The previous private-filtered (core, word, is_write), carried
        # across window edges for the repeated-word filter.
        last: Optional[Tuple[int, int, bool]] = None

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
            cores_a = window.core
            addrs_a = window.addr
            writes_a = window.is_write
            if shared is not None:
                keep = np.isin(addrs_a >> 6, shared)
                cores_a = cores_a[keep]
                addrs_a = addrs_a[keep]
                writes_a = writes_a[keep]
                if not cores_a.size:
                    continue
                # Drop repeated same-thread same-word touches (reads, or
                # writes directly after a write).
                words = addrs_a >> 2
                skip = np.empty(cores_a.size, dtype=bool)
                skip[0] = last is not None and (
                    last[0] == cores_a[0] and last[1] == words[0]
                    and (last[2] or not writes_a[0]))
                skip[1:] = (
                    (cores_a[1:] == cores_a[:-1])
                    & (words[1:] == words[:-1])
                    & (~writes_a[1:] | writes_a[:-1])
                )
                last = (int(cores_a[-1]), int(words[-1]), bool(writes_a[-1]))
                keep = ~skip
                cores_a = cores_a[keep]
                addrs_a = addrs_a[keep]
                writes_a = writes_a[keep]
            for t, addr, w in zip(cores_a.tolist(), addrs_a.tolist(),
                                  writes_a.tolist()):
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
        return ShadowReport(
            fs_misses=sum(fs for fs, _ in per_line.values()),
            ts_misses=sum(ts for _, ts in per_line.values()),
            cold_misses=cold,
            instructions=program.total_instructions,
            nthreads=nt,
            per_line=per_line,
        )
