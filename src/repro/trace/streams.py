"""Interleaving per-thread traces into one global access order.

Real cores run concurrently; a trace-driven simulator needs a total order.
We use chunked round-robin: each live thread issues ``chunk`` consecutive
accesses before the next thread runs.  ``chunk`` models the window of
accesses a core completes between coherence interactions — smaller chunks
mean finer interleaving and more cache-line ping-pong under false sharing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.errors import TraceError
from repro.trace.access import ProgramTrace

#: Default window size (accesses) for :func:`interleave_stream`.  Large
#: enough that the per-window numpy/lexsort overhead and the drive's
#: per-window call cost vanish, small enough that a GB-scale trace streams
#: in tens-of-MB working sets.  Drive results do not depend on it.
DEFAULT_SEGMENT = 4_194_304

#: Default interleave granularity.  Chosen so that a tight false-sharing loop
#: (one store per ~10 instructions) yields a false-sharing miss rate in the
#: 1e-2 range, matching the rates Zhao et al.'s tool reports for
#: linear_regression (paper Table 7).
DEFAULT_CHUNK = 4


@dataclass(frozen=True)
class MergedTrace:
    """Column-oriented global access order: (core, addr, is_write) triples."""

    core: np.ndarray
    addr: np.ndarray
    is_write: np.ndarray

    def __len__(self) -> int:
        return int(self.core.size)


def _merge(threads, lo: int, hi: int, chunk: int) -> MergedTrace:
    """The merged rows at per-thread positions ``[lo, hi)``.

    The merge key is ``(position // chunk, thread, position)``, so with
    ``lo`` on a round boundary the rows are a self-contained stretch of
    the global order, and each thread contributes one contiguous slice of
    its columns (views when the columns are memmaps).
    """
    if len(threads) == 1:
        t = threads[0]
        return MergedTrace(np.zeros(hi - lo, np.int16),
                           t.addrs[lo:hi], t.is_write[lo:hi])
    spans = [(min(t.n_accesses, lo), min(t.n_accesses, hi)) for t in threads]
    n = sum(b - a for a, b in spans)
    core_col = np.empty(n, np.int16)
    pos_col = np.empty(n, np.int64)
    addr_col = np.empty(n, np.int64)
    wr_col = np.empty(n, bool)
    off = 0
    for tid, (t, (a, b)) in enumerate(zip(threads, spans)):
        sl = slice(off, off + (b - a))
        core_col[sl] = tid
        pos_col[sl] = np.arange(a, b, dtype=np.int64)
        addr_col[sl] = t.addrs[a:b]
        wr_col[sl] = t.is_write[a:b]
        off += b - a
    # np.lexsort sorts by its last key first.
    order = np.lexsort((pos_col, core_col, pos_col // chunk))
    return MergedTrace(core_col[order], addr_col[order], wr_col[order])


def interleave_stream(
    program: ProgramTrace,
    chunk: int = DEFAULT_CHUNK,
    max_accesses: int = DEFAULT_SEGMENT,
) -> Iterator[MergedTrace]:
    """Merge a program's thread traces into chunked round-robin order.

    Threads of unequal length simply finish early: remaining threads keep
    rotating.  The merge is stable within each thread (program order is
    preserved per thread — the property coherence simulation depends on).

    Yields consecutive :class:`MergedTrace` windows whose concatenation is
    the global order, without ever materializing the full merged columns.
    Each window is a stretch of whole interleaving rounds, so it only
    touches a ``chunk * rounds`` slice of every per-thread column.

    A window starting at per-thread position ``lo`` spans
    ``max_accesses // (live * chunk)`` rounds (at least one), where
    ``live`` counts the threads with accesses left at ``lo``.  Threads
    only finish, so a window holds at most ``max_accesses`` rows (or one
    round, if that is more), and once the short threads are done the
    long ones stream in windows sized for them alone.
    """
    if chunk <= 0:
        raise TraceError("chunk must be positive")
    if max_accesses <= 0:
        raise TraceError("max_accesses must be positive")
    threads = program.threads
    longest = max(t.n_accesses for t in threads)
    lo = 0
    while lo < longest:
        live = sum(1 for t in threads if t.n_accesses > lo)
        hi = min(lo + max(1, max_accesses // (live * chunk)) * chunk, longest)
        yield _merge(threads, lo, hi, chunk)
        lo = hi
