"""Interleaving per-thread traces into one global access order.

Real cores run concurrently; a trace-driven simulator needs a total order.
We use chunked round-robin: each live thread issues ``chunk`` consecutive
accesses before the next thread runs.  ``chunk`` models the window of
accesses a core completes between coherence interactions — smaller chunks
mean finer interleaving and more cache-line ping-pong under false sharing.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Union

import numpy as np

from repro.errors import TraceError
from repro.trace.access import ProgramTrace

#: Default segment size (accesses) for :func:`interleave_stream`.  Large
#: enough that the per-segment numpy/lexsort overhead vanishes and the
#: drive strategies see the same routing signal as a monolithic merge,
#: small enough that a GB-scale trace streams in tens-of-MB working sets.
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

    # ------------------------------------------------------------ store IO

    def to_file(self, path: Union[str, Path]) -> str:
        """Write the merged order as a binary trace store; returns digest."""
        from repro.trace.store import write_store

        return write_store(path, [
            ("core", np.asarray(self.core, dtype=np.int32)),
            ("addr", np.asarray(self.addr, dtype=np.int64)),
            ("is_write", np.asarray(self.is_write).view(np.uint8)
             if np.asarray(self.is_write).dtype == np.bool_
             else np.asarray(self.is_write, dtype=np.uint8)),
        ], meta={"kind": "merged"})

    @classmethod
    def open_mmap(cls, path: Union[str, Path]) -> "MergedTrace":
        """Open a merged store as read-only memmap views (zero-copy)."""
        from repro.trace.store import open_store

        return cls._from_store(open_store(path))

    @classmethod
    def from_file(cls, path: Union[str, Path]) -> "MergedTrace":
        """Load a merged store into private writable arrays."""
        from repro.trace.store import read_store

        return cls._from_store(read_store(path))

    @classmethod
    def _from_store(cls, store) -> "MergedTrace":
        if store.meta.get("kind") != "merged":
            raise TraceError(
                f"store {store.path} is not a merged-trace store "
                f"(kind={store.meta.get('kind')!r})")
        return cls(store["core"], store["addr"],
                   store["is_write"].view(np.bool_))


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


def interleave(program: ProgramTrace, chunk: int = DEFAULT_CHUNK) -> MergedTrace:
    """Merge a program's thread traces into chunked round-robin order.

    Threads of unequal length simply finish early: remaining threads keep
    rotating.  The merge is stable within each thread (program order is
    preserved per thread — the property coherence simulation depends on).
    """
    if chunk <= 0:
        raise TraceError("chunk must be positive")
    longest = max(t.n_accesses for t in program.threads)
    return _merge(program.threads, 0, longest, chunk)


def interleave_stream(
    program: ProgramTrace,
    chunk: int = DEFAULT_CHUNK,
    max_accesses: int = DEFAULT_SEGMENT,
) -> Iterator[MergedTrace]:
    """:func:`interleave`, streamed: bounded-memory windows, exact order.

    Yields consecutive :class:`MergedTrace` windows whose concatenation is
    bit-identical to ``interleave(program, chunk)`` without ever
    materializing the full merged columns.  Each window is a stretch of
    whole interleaving rounds, so it only touches a
    ``len(threads) * chunk * rounds`` slice of every per-thread column.

    ``max_accesses`` bounds the window size; every window holds at least
    one round.
    """
    if chunk <= 0:
        raise TraceError("chunk must be positive")
    if max_accesses <= 0:
        raise TraceError("max_accesses must be positive")
    threads = program.threads
    longest = max(t.n_accesses for t in threads)
    step = max(1, max_accesses // (len(threads) * chunk)) * chunk
    for lo in range(0, longest, step):
        yield _merge(threads, lo, min(lo + step, longest), chunk)
