"""Memory-access trace containers.

A :class:`ThreadTrace` is the unit produced by workload generators: the
ordered byte addresses one thread touches, which of them are writes, and how
many retired instructions the thread executes per access (loop overhead,
arithmetic).  A :class:`ProgramTrace` bundles one trace per thread plus
program-level metadata; it is what the multicore machine consumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.errors import TraceError
from repro.memory.layout import line_of


def _as_addr_column(arr) -> np.ndarray:
    """``arr`` as contiguous int64, without duplicating an eligible array.

    A read-only memmap view from :mod:`repro.trace.store` (or any
    already-contiguous int64 array) passes through untouched — copying it
    would silently double the resident cost of a GB-scale trace per
    ThreadTrace construction.
    """
    if (isinstance(arr, np.ndarray) and arr.dtype == np.int64
            and arr.flags.c_contiguous):
        return arr
    return np.ascontiguousarray(arr, dtype=np.int64)


def _as_write_column(arr) -> np.ndarray:
    """``arr`` as contiguous bool, zero-copy for bool/uint8 views."""
    if isinstance(arr, np.ndarray) and arr.flags.c_contiguous:
        if arr.dtype == np.bool_:
            return arr
        if arr.dtype == np.uint8:
            # Same bytes, different label: a store's uint8 column is a
            # bool column (the writer only emits 0/1).
            return arr.view(np.bool_)
    return np.ascontiguousarray(arr, dtype=bool)


@dataclass
class ThreadTrace:
    """One thread's ordered memory accesses.

    Attributes
    ----------
    addrs:
        Byte addresses, int64, in program order.
    is_write:
        Boolean per access; True for stores.
    instr_per_access:
        Average retired instructions attributed to each access (>= 1.0; the
        access itself counts as one instruction).
    extra_instructions:
        Instructions retired outside the per-access accounting — e.g. cycles
        burnt spinning on a lock.  This is how streamcluster's
        instruction-count nondeterminism (Table 8 discussion) enters.
    """

    addrs: np.ndarray
    is_write: np.ndarray
    instr_per_access: float = 3.0
    extra_instructions: int = 0

    def __post_init__(self) -> None:
        self.addrs = _as_addr_column(self.addrs)
        self.is_write = _as_write_column(self.is_write)
        if self.addrs.ndim != 1 or self.is_write.ndim != 1:
            raise TraceError("trace arrays must be one-dimensional")
        if self.addrs.shape != self.is_write.shape:
            raise TraceError(
                f"addrs ({self.addrs.shape}) and is_write ({self.is_write.shape}) "
                "must have the same length"
            )
        if self.addrs.size and self.addrs.min() < 0:
            raise TraceError(
                f"addresses must be non-negative (got {int(self.addrs.min())})"
            )
        # NaN compares False against everything, so the >= 1 check alone
        # would silently admit it (and +inf); reject non-finite explicitly.
        if not np.isfinite(self.instr_per_access):
            raise TraceError(
                "instr_per_access must be finite "
                f"(got {self.instr_per_access!r})"
            )
        if self.instr_per_access < 1.0:
            raise TraceError("instr_per_access must be >= 1 (the access itself)")
        if self.extra_instructions < 0:
            raise TraceError("extra_instructions must be >= 0")

    def __len__(self) -> int:
        return int(self.addrs.size)

    @property
    def n_accesses(self) -> int:
        return int(self.addrs.size)

    @property
    def n_writes(self) -> int:
        return int(self.is_write.sum())

    @property
    def n_reads(self) -> int:
        return self.n_accesses - self.n_writes

    @property
    def instructions(self) -> int:
        """Total retired instructions this thread executes."""
        return int(round(self.n_accesses * self.instr_per_access)) + self.extra_instructions

    def lines(self) -> np.ndarray:
        """Cache-line index per access."""
        return line_of(self.addrs)

    def footprint_lines(self) -> int:
        """Number of distinct cache lines touched."""
        if not self.addrs.size:
            return 0
        return int(np.unique(line_of(self.addrs)).size)

    def concat(self, other: "ThreadTrace") -> "ThreadTrace":
        """Append another phase executed by the same thread.

        Instruction weights are merged so total instructions are preserved.
        """
        total = self.n_accesses + other.n_accesses
        if total == 0:
            return ThreadTrace(np.empty(0, np.int64), np.empty(0, bool))
        per_access = (
            self.n_accesses * self.instr_per_access
            + other.n_accesses * other.instr_per_access
        ) / total
        return ThreadTrace(
            np.concatenate([self.addrs, other.addrs]),
            np.concatenate([self.is_write, other.is_write]),
            instr_per_access=max(1.0, per_access),
            extra_instructions=self.extra_instructions + other.extra_instructions,
        )


@dataclass
class ProgramTrace:
    """A whole program run: one :class:`ThreadTrace` per thread.

    Thread ``i`` is pinned to core ``i`` by the machine.  ``meta`` carries
    free-form provenance (workload name, mode, size...) used by experiments;
    the simulator itself never reads it, so labels cannot leak into counts.
    """

    threads: List[ThreadTrace]
    name: str = "anonymous"
    meta: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.threads:
            raise TraceError("a program needs at least one thread")
        for i, t in enumerate(self.threads):
            if not isinstance(t, ThreadTrace):
                raise TraceError(f"thread {i} is not a ThreadTrace")

    @property
    def nthreads(self) -> int:
        return len(self.threads)

    @property
    def total_accesses(self) -> int:
        return sum(t.n_accesses for t in self.threads)

    @property
    def total_instructions(self) -> int:
        return sum(t.instructions for t in self.threads)

    def footprint_lines(self) -> int:
        """Distinct cache lines touched by any thread."""
        arrays = [line_of(t.addrs) for t in self.threads if t.addrs.size]
        if not arrays:
            return 0
        return int(np.unique(np.concatenate(arrays)).size)


def empty_thread(instr: int = 0) -> ThreadTrace:
    """A thread that executes instructions but touches no memory."""
    return ThreadTrace(
        np.empty(0, np.int64), np.empty(0, bool), extra_instructions=instr
    )


def make_thread(
    addrs: np.ndarray,
    writes: Optional[np.ndarray] = None,
    instr_per_access: float = 3.0,
    extra_instructions: int = 0,
) -> ThreadTrace:
    """Convenience constructor; ``writes=None`` means all loads."""
    addrs = np.asarray(addrs, dtype=np.int64)
    if writes is None:
        writes = np.zeros(addrs.shape, dtype=bool)
    return ThreadTrace(addrs, np.asarray(writes, dtype=bool),
                       instr_per_access, extra_instructions)
