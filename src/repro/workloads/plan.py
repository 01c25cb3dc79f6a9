"""Symbolic access plans: what a workload *would* do, without a trace.

A trace generator performs two separable jobs: it lays out named data in a
simulated address space (deterministically, via :class:`BumpAllocator`), and
it emits a per-thread access stream over that data.  Each workload does the
first job once, in a ``_layout`` method that fills a :class:`PlanBuilder`;
the generator reads its addresses from the builder's symbols and the plan
records its uses on the same builder.  An :class:`AccessPlan` is then the
symbolic side of that one layout: the
:class:`~repro.memory.symbols.SymbolTable` of every allocated object at
its exact generated address, plus a set of :class:`RegionUse` records —
"thread 2 performs 40k reads and 40k writes over elements [0, 8) of
``acc[t2]``, linearly, during the steady-state loop".

The predictive analyzer
(:class:`~repro.analysis.sharing.PredictiveAnalyzer`) walks plans instead
of traces: per-line thread overlap and write intent fall out of the region
algebra, so a workload can be classified for false sharing without
generating a single access.  Because generator and plan share the layout,
the symbol addresses — and therefore the line-level predictions — match
the traced reality byte for byte by construction.

Temporal model: each use lives in a ``phase`` (0 = steady-state loop,
1 = end/merge phase; phases never overlap in time) and covers a position
window inside its phase.  ``order`` says how element visits map to time
within that window: ``"linear"`` means visit position grows with element
index (a partitioned sweep — neighbouring partitions touch their shared
boundary line at *disjoint* times, the hand-off pattern that must not be
called contention), ``"scattered"`` means any element may be touched at any
time.  ``bursts_per_line`` estimates how many temporally separated visit
clusters each line receives, which feeds the same refetch-rate arithmetic
the trace-based analyzer applies to real streams.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import ConfigError
from repro.memory.allocator import BumpAllocator
from repro.memory.layout import LINE_SIZE
from repro.memory.symbols import Symbol, SymbolTable
from repro.workloads.base import Mode, stride_of
from repro.workloads.builders import sync_count

#: Intra-use visit-order kinds.
USE_ORDERS = ("linear", "scattered")

#: Same-line revisit gap (in accesses) below which a line stays resident and
#: revisits are free; mirrors the trace analyzer's refetch window.
HOT_GAP = 32


@dataclass(frozen=True)
class RegionUse:
    """One thread's accesses to an element range of one symbol."""

    symbol: str
    tid: int
    reads: int
    writes: int
    start: int = 0
    stop: int = 1
    step: int = 1
    order: str = "linear"
    phase: int = 0
    bursts_per_line: float = 1.0

    def __post_init__(self) -> None:
        if self.reads < 0 or self.writes < 0:
            raise ConfigError("use needs reads >= 0 and writes >= 0")
        if self.step < 1 or self.stop <= self.start:
            raise ConfigError("use needs step >= 1 and stop > start")
        if self.order not in USE_ORDERS:
            raise ConfigError(f"order must be one of {USE_ORDERS}")
        if self.phase not in (0, 1):
            raise ConfigError("phase must be 0 (loop) or 1 (end)")
        if self.bursts_per_line < 1.0:
            raise ConfigError("bursts_per_line must be >= 1")

    @property
    def accesses(self) -> int:
        return self.reads + self.writes

    def to_dict(self) -> Dict[str, object]:
        return {
            "symbol": self.symbol,
            "tid": self.tid,
            "reads": int(self.reads),
            "writes": int(self.writes),
            "elements": [int(self.start), int(self.stop), int(self.step)],
            "order": self.order,
            "phase": self.phase,
            "bursts_per_line": round(float(self.bursts_per_line), 3),
        }


@dataclass
class AccessPlan:
    """A workload's symbolic layout and per-thread access summary."""

    name: str
    nthreads: int
    symbols: SymbolTable
    uses: List[RegionUse]
    ipa: List[float]
    extra_instructions: List[int]
    meta: Dict[str, object] = field(default_factory=dict)

    def validate(self) -> "AccessPlan":
        if len(self.ipa) != self.nthreads:
            raise ConfigError("plan needs one ipa per thread")
        if len(self.extra_instructions) != self.nthreads:
            raise ConfigError("plan needs one extra-instruction count per thread")
        for use in self.uses:
            if use.symbol not in self.symbols:
                raise ConfigError(f"use references unknown symbol {use.symbol!r}")
            if not 0 <= use.tid < self.nthreads:
                raise ConfigError(f"use tid {use.tid} outside [0,{self.nthreads})")
            sym = self.symbols[use.symbol]
            if use.stop > max(sym.length, 1):
                raise ConfigError(
                    f"use of {use.symbol!r} stops at element {use.stop}, "
                    f"but the symbol has {sym.length}"
                )
        return self

    # ------------------------------------------------------------- summaries

    def scope(self) -> str:
        """Stable identity of the analyzed configuration.

        Used as the fingerprint scope for lint baselining: the same
        workload at the same mode and thread count keeps the same scope
        (and therefore the same finding fingerprints) across runs.
        """
        m = self.meta
        if "mode" in m:
            return (f"{m.get('workload', self.name)}/{m['mode']}"
                    f"/t{self.nthreads}")
        if "opt" in m:
            return (f"{m.get('workload', self.name)}/{m.get('input', '?')}"
                    f"/{m['opt']}/t{self.nthreads}")
        return f"{self.name}/t{self.nthreads}"

    def uses_of(self, symbol: str) -> List[RegionUse]:
        return [u for u in self.uses if u.symbol == symbol]

    def thread_accesses(self, tid: int) -> int:
        return sum(u.accesses for u in self.uses if u.tid == tid)

    @property
    def total_accesses(self) -> int:
        return sum(u.accesses for u in self.uses)

    @property
    def total_instructions(self) -> int:
        # Mirrors ThreadTrace.instructions: round(n_accesses * ipa) + extra.
        return sum(
            int(round(self.thread_accesses(t) * self.ipa[t]))
            + self.extra_instructions[t]
            for t in range(self.nthreads)
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "threads": self.nthreads,
            "total_accesses": int(self.total_accesses),
            "total_instructions": int(self.total_instructions),
            "meta": dict(sorted(self.meta.items())),
            "symbols": self.symbols.to_dict(),
            "uses": [u.to_dict() for u in self.uses],
        }


# ---------------------------------------------------------------- modelling

def visit_kind(mode: Mode, pattern: str) -> str:
    """Intra-partition visit order a generator's ``ordered_visit`` yields."""
    if mode is not Mode.BAD_MA or pattern == "linear":
        return "linear"
    return "scattered"


def hostile_bursts(mode: Mode, pattern: str, elems_per_line: int) -> float:
    """Visit clusters per line for one sweep under a visit pattern.

    A linear sweep touches each line's elements consecutively (one burst);
    a random permutation scatters them into ~one burst per element; a
    stride-S walk revisits each line once per interleaved pass, capped by
    how many elements the line holds.
    """
    k = max(1, elems_per_line)
    if visit_kind(mode, pattern) == "linear":
        return 1.0
    if pattern == "random":
        return float(k)
    return float(min(max(stride_of(pattern), 1), k))


class PlanBuilder:
    """A workload's one layout pass, then the plan's uses over it.

    Every allocation goes through a :class:`BumpAllocator` and is registered
    as a :class:`Symbol` at once; the trace generator reads its addresses
    from those symbols, and the plan records its :class:`RegionUse` rows on
    the same builder.  ``dims`` holds the derived sizes (loop lengths, chunk
    sizes) the layout computed and both sides read.
    """

    def __init__(self, name: str, nthreads: int, base: int = 4096) -> None:
        self.name = name
        self.nthreads = nthreads
        self.alloc = BumpAllocator(base)
        self.symbols = SymbolTable()
        self.uses: List[RegionUse] = []
        self.dims: Dict[str, int] = {}

    # ------------------------------------------------------------ allocation

    def region(self, name: str, nbytes: int, align: int = 64, *,
               size: Optional[int] = None, **symkw) -> Symbol:
        """Allocate ``nbytes`` and register a symbol over (part of) it."""
        base = self.alloc.alloc(nbytes, align=align)
        return self.symbols.add(
            Symbol(name, base, nbytes if size is None else size, **symkw)
        )

    def line_region(self, name: str, nbytes: int = LINE_SIZE, *,
                    size: Optional[int] = None, **symkw) -> Symbol:
        """A fresh line-aligned region (``alloc_line_aligned``)."""
        return self.region(name, nbytes, align=LINE_SIZE, size=size, **symkw)

    def array(self, name: str, elem_size: int, length: int, align: int = 64,
              stride: int = 0, **symkw) -> Symbol:
        """Allocate an array and register its layout under ``name``."""
        layout = self.alloc.alloc_array(elem_size, length, align=align,
                                        stride=stride)
        return self.symbols.add_array(name, layout, **symkw)

    def thread_slots(self, group: str, mode: Mode, elem_size: int = 8,
                     kind: str = "slot",
                     field_size: Optional[int] = None) -> List[Symbol]:
        """One slot per thread: packed iff the mode is bad-fs.

        ``elem_size`` is the allocation pitch (the slot size); ``field_size``
        is the granularity the slot is accessed at (defaults to the pitch,
        capped at 8 — a 16-byte slot holds two 8-byte fields).
        """
        fsz = field_size if field_size is not None else min(elem_size, 8)
        bases = self.alloc.per_thread_slots(
            self.nthreads, elem_size, padded=mode is not Mode.BAD_FS)
        return [
            self.symbols.add(Symbol(
                f"{group}[t{t}]", b, elem_size,
                kind=kind, tid=t, elem_size=fsz, group=group,
            ))
            for t, b in enumerate(bases)
        ]

    # --------------------------------------------------------------- accesses

    def use(self, symbol: Symbol, tid: int, *, reads: int = 0,
            writes: int = 0, start: int = 0, stop: Optional[int] = None,
            step: int = 1, order: str = "linear", phase: int = 0,
            bursts: float = 1.0) -> None:
        if reads == 0 and writes == 0:
            return
        if stop is None:
            stop = max(symbol.length, 1)
        self.uses.append(RegionUse(
            symbol.name, tid, reads, writes, start=start, stop=stop,
            step=step, order=order, phase=phase, bursts_per_line=bursts,
        ))

    def gather_use(self, table: Symbol, tid: int, hits: int,
                   every: int) -> int:
        """Record ``hits`` uniform random lookups of ``table``, one every
        ``every`` iterations (an :func:`~repro.workloads.builders.interleave`
        gather block); returns the accesses added.

        Each line of the table is touched once per ``every * lines``
        iterations: below the residency window the table stays cache-hot and
        revisits are free, otherwise every touch lands on a cooled line.
        """
        lines = max(1, table.size // LINE_SIZE)
        cooled = hits > 0 and every * float(lines) > HOT_GAP
        self.use(table, tid, reads=hits, order="scattered",
                 bursts=max(1.0, hits / lines) if cooled else 1.0)
        return hits

    def rmw_use(self, symbol: Symbol, tid: int, hits: int, fields: int = 1,
                phase: int = 0) -> int:
        """Record ``hits`` read-modify-writes of each of ``fields`` fields
        (an :func:`~repro.workloads.builders.interleave` block of
        :func:`~repro.workloads.builders.rmw_cols`); returns the accesses
        added."""
        self.use(symbol, tid, reads=hits * fields, writes=hits * fields,
                 stop=fields, order="scattered", phase=phase)
        return 2 * fields * hits

    def sync_use(self, sync: Symbol, tid: int, n_body: int,
                 every: int) -> int:
        """Record the periodic sync-word RMWs ``with_sync`` would splice
        into ``n_body`` accesses."""
        n = sync_count(n_body, every)
        self.use(sync, tid, reads=n, writes=n, order="scattered",
                 bursts=float(max(n, 1)))
        return n

    # ----------------------------------------------------------------- result

    def finish(self, ipa, extra=None, **meta) -> AccessPlan:
        """Assemble the validated plan; ``ipa`` may be scalar or per-thread."""
        if isinstance(ipa, (int, float)):
            ipa = [float(ipa)] * self.nthreads
        if extra is None:
            extra = [0] * self.nthreads
        plan = AccessPlan(
            self.name, self.nthreads, self.symbols, self.uses,
            [float(x) for x in ipa], [int(x) for x in extra], dict(meta),
        )
        return plan.validate()


def sweeps_of(iters: int, span: int) -> float:
    """Full passes over a ``span``-element range in ``iters`` visits."""
    if span <= 0:
        return 1.0
    return max(1.0, math.ceil(iters / span))


def elems_per_line(elem_size: int, stride: int = 0) -> int:
    """Array elements sharing one cache line (1 when stride >= a line)."""
    pitch = stride or elem_size
    return max(1, LINE_SIZE // max(pitch, 1))


def clamp_range(start: int, span: int, total: int) -> Tuple[int, int]:
    """The generators' ``start % total`` + span element window."""
    s = start % max(total, 1)
    return s, s + span
