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
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import BaselineError
from repro.trace.access import ProgramTrace
from repro.trace.streams import (DEFAULT_CHUNK, DEFAULT_SEGMENT,
                                 interleave_stream)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.parallel import ExecutionEngine
    from repro.suites.base import SuiteCase

#: [33]'s decision threshold on the false-sharing rate.
FS_RATE_THRESHOLD = 1e-3

#: [33]'s instrumentation cannot shadow more than 8 threads.
MAX_THREADS = 8

#: Reported slowdown of the dynamic-instrumentation approach.
SLOWDOWN = 5.0


@dataclass
class ShadowReport:
    """Outcome of one shadowed run.

    ``per_line`` (when collected) maps cache-line index to its
    ``(fs_misses, ts_misses)`` counts — line-level attribution from the
    instrumentation-based tool, comparable against the sampling-based
    c2c report.
    """

    fs_misses: int
    ts_misses: int
    cold_misses: int
    instructions: int
    nthreads: int
    per_line: Dict[int, tuple] = None

    def hottest_fs_lines(self, n: int = 8):
        """Lines with the most false-sharing misses, hottest first."""
        if not self.per_line:
            return []
        items = [(line, fs, ts) for line, (fs, ts) in self.per_line.items()
                 if fs > 0]
        items.sort(key=lambda x: x[1], reverse=True)
        return items[:n]

    @property
    def counts(self) -> Tuple[int, int, int, int]:
        """What caches keep; ``ShadowReport(*counts, nthreads=n)`` rebuilds."""
        return (self.fs_misses, self.ts_misses, self.cold_misses,
                self.instructions)

    @property
    def fs_rate(self) -> float:
        """False-sharing misses per instruction (the paper's rate)."""
        if self.instructions <= 0:
            raise BaselineError("no instructions executed")
        return self.fs_misses / self.instructions

    @property
    def contention_rate(self) -> float:
        if self.instructions <= 0:
            raise BaselineError("no instructions executed")
        return (self.fs_misses + self.ts_misses) / self.instructions

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

    def __init__(self, max_threads: int = MAX_THREADS,
                 track_lines: bool = False,
                 fast: bool = True) -> None:
        if not isinstance(fast, bool):
            raise BaselineError(f"fast must be a bool, got {fast!r}")
        self.max_threads = max_threads
        self.track_lines = track_lines
        self.fast = fast

    def run(
        self, program: ProgramTrace, chunk: int = DEFAULT_CHUNK
    ) -> ShadowReport:
        nt = program.nthreads
        if nt > self.max_threads:
            raise BaselineError(
                f"shadow tool handles at most {self.max_threads} threads; "
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
        invalmask: Dict[int, list] = {}    # line -> per-thread invalidator slots
        fs = ts = 0
        all_zero = [0] * nt
        per_line: Dict[int, list] = {} if self.track_lines else None

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
                            ts += 1
                            if per_line is not None:
                                per_line.setdefault(line, [0, 0])[1] += 1
                        else:
                            fs += 1
                            if per_line is not None:
                                per_line.setdefault(line, [0, 0])[0] += 1
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
                            inv = list(all_zero)
                            invalmask[line] = inv
                        for u in range(nt):
                            if others & (1 << u):
                                inv[u] |= slot
                        held = bit
                holders[line] = held
        return ShadowReport(
            fs_misses=fs,
            ts_misses=ts,
            cold_misses=cold,
            instructions=program.total_instructions,
            nthreads=nt,
            per_line=(None if per_line is None
                      else {k: tuple(v) for k, v in per_line.items()}),
        )


    def run_store(self, path, chunk: int = DEFAULT_CHUNK) -> ShadowReport:
        """Shadow a program persisted as a binary trace store.

        The store is opened as read-only memmap views (zero-copy) and
        walked in bounded windows like any program, so the merged order is
        never resident as a whole.  Results are identical to :meth:`run`.
        """
        from repro.trace.store import open_program

        return self.run(open_program(path), chunk=chunk)

    def run_many(
        self,
        cases: Sequence[Tuple[str, "SuiteCase"]],
        chunk: int = DEFAULT_CHUNK,
        jobs: Optional[int] = None,
        engine: Optional["ExecutionEngine"] = None,
    ) -> List[ShadowReport]:
        """Shadow ``(program_name, case)`` pairs, optionally in parallel.

        Oracle runs are independent and deterministic, so fanning them over
        worker processes returns the exact reports a serial sweep would, in
        input order, with ``per_line`` when this detector tracks lines.
        """
        if engine is None:
            from repro.parallel import ExecutionEngine

            engine = ExecutionEngine(jobs)
        return engine.shadow_batch(list(cases), chunk, self.max_threads,
                                   fast=self.fast,
                                   track_lines=self.track_lines)


def false_sharing_rate(
    program: ProgramTrace, chunk: int = DEFAULT_CHUNK
) -> float:
    """One-shot convenience: the [33] false-sharing rate of a trace."""
    return ShadowMemoryDetector().run(program, chunk=chunk).fs_rate
