"""Address-range symbolization: cache lines back to named workload objects.

The detection side of the pipeline speaks in cache-line addresses; users
think in *objects* — "the per-thread accumulator array", "column 3 of B".
This module provides the mapping between the two, the idiom mtrace's
``FalseSharing`` handler builds with ``objects_on_cline(addr)``: an
interval-indexed table of named address ranges with line-granular queries.

A :class:`SymbolTable` is filled by a workload's one layout pass (see
:class:`repro.workloads.plan.PlanBuilder`): every allocation — arrays,
per-thread slots, gather tables, stack slots, the sync word — becomes a
:class:`Symbol` carrying its name, owning thread (for per-thread data),
element geometry and logical group.  The trace generator reads its
addresses from these symbols and the access plan names its uses by them,
so addresses and names come from one source.  Queries:

* ``objects_on_line(addr)`` — all named objects colliding on the cache
  line holding ``addr`` (> 1 object on a written line is the layout smell
  the predictive lint rules act on);
* ``line_owners(line)`` — the same by line index;
* ``resolve(addr)`` — the object(s) covering one byte address, with the
  field-level label (``"psum[t2]+8"``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional

import numpy as np

from repro.memory.layout import LINE_SIZE, ArrayLayout, line_of

#: Symbol kinds, in the vocabulary of the workload generators.
SYMBOL_KINDS = ("array", "slot", "struct", "table", "stack", "sync", "merge")


@dataclass(frozen=True)
class Symbol:
    """One named object in a workload's simulated address space.

    ``tid`` is the owning thread for per-thread data (None for shared
    objects); ``group`` names the logical family a per-thread symbol
    belongs to (all of ``psum[t0..t3]`` share group ``"psum"``), which is
    how the lint rules recognize a packed per-thread slot array as one
    object-level bug rather than N line-level ones.
    """

    name: str
    base: int
    size: int
    kind: str = "array"
    tid: Optional[int] = None
    elem_size: int = 8
    stride: int = 0  # 0 means "use elem_size"
    group: str = ""

    def __post_init__(self) -> None:
        if self.base < 0 or self.size < 0:
            raise ValueError("symbol needs base >= 0 and size >= 0")
        if self.kind not in SYMBOL_KINDS:
            raise ValueError(
                f"unknown symbol kind {self.kind!r}; known: {SYMBOL_KINDS}"
            )
        if self.elem_size <= 0:
            raise ValueError("elem_size must be positive")

    @property
    def end(self) -> int:
        """One past the last byte of the object."""
        return self.base + self.size

    @property
    def effective_stride(self) -> int:
        return self.stride or self.elem_size

    @property
    def length(self) -> int:
        """Element count implied by size and stride."""
        if self.size == 0:
            return 0
        return 1 + (self.size - self.elem_size) // self.effective_stride

    @property
    def first_line(self) -> int:
        return int(line_of(self.base))

    @property
    def last_line(self) -> int:
        if self.size == 0:
            return int(line_of(self.base))
        return int(line_of(self.end - 1))

    def layout(self) -> ArrayLayout:
        """The object's element geometry as an :class:`ArrayLayout`."""
        return ArrayLayout(self.base, self.elem_size, self.length,
                           self.stride)

    def covers(self, addr: int) -> bool:
        return self.base <= addr < self.end

    def overlaps_line(self, line: int) -> bool:
        return self.first_line <= line <= self.last_line

    def field_label(self, addr: int) -> str:
        """Field-level label for a byte address inside the object."""
        if not self.covers(addr):
            raise ValueError(f"0x{addr:x} is outside {self.name}")
        off = addr - self.base
        return self.name if off == 0 else f"{self.name}+{off}"

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "base": int(self.base),
            "size": int(self.size),
            "kind": self.kind,
            "tid": self.tid,
            "elem_size": int(self.elem_size),
            "stride": int(self.stride),
            "group": self.group,
            "lines": [self.first_line, self.last_line],
        }


class SymbolTable:
    """Interval-indexed map from address ranges to named objects."""

    def __init__(self) -> None:
        self._symbols: List[Symbol] = []
        self._by_name: Dict[str, Symbol] = {}
        self._starts: Optional[np.ndarray] = None
        self._ends: Optional[np.ndarray] = None
        self._order: Optional[np.ndarray] = None

    # ------------------------------------------------------------- building

    def add(self, symbol: Symbol) -> Symbol:
        if symbol.name in self._by_name:
            raise ValueError(f"duplicate symbol name {symbol.name!r}")
        self._symbols.append(symbol)
        self._by_name[symbol.name] = symbol
        self._starts = self._ends = self._order = None
        return symbol

    def add_region(self, name: str, base: int, size: int, **kw) -> Symbol:
        return self.add(Symbol(name, base, size, **kw))

    def add_array(self, name: str, layout: ArrayLayout, **kw) -> Symbol:
        """Register an allocated :class:`ArrayLayout` under ``name``."""
        return self.add(Symbol(
            name, layout.base, layout.size_bytes,
            elem_size=layout.elem_size, stride=layout.stride, **kw,
        ))

    # -------------------------------------------------------------- queries

    def __len__(self) -> int:
        return len(self._symbols)

    def __iter__(self) -> Iterator[Symbol]:
        return iter(self._symbols)

    def __getitem__(self, name: str) -> Symbol:
        return self._by_name[name]

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    @property
    def symbols(self) -> List[Symbol]:
        return list(self._symbols)

    def _index(self) -> None:
        if self._starts is not None:
            return
        starts = np.array([s.base for s in self._symbols], dtype=np.int64)
        self._order = np.argsort(starts, kind="stable")
        self._starts = starts[self._order]
        self._ends = np.array(
            [self._symbols[i].end for i in self._order.tolist()],
            dtype=np.int64,
        )

    def _overlapping(self, lo: int, hi: int) -> List[Symbol]:
        """Symbols whose [base, end) intersects [lo, hi), in base order."""
        if not self._symbols or hi <= lo:
            return []
        self._index()
        assert self._starts is not None
        mask = (self._starts < hi) & (self._ends > lo)
        return [self._symbols[i] for i in self._order[mask].tolist()]

    def resolve(self, addr: int) -> List[Symbol]:
        """The object(s) covering one byte address (usually 0 or 1)."""
        return self._overlapping(addr, addr + 1)

    def objects_on_line(self, addr: int,
                        line_size: int = LINE_SIZE) -> List[Symbol]:
        """All objects colliding on the cache line holding ``addr``.

        The mtrace ``objects_on_cline`` idiom: more than one returned
        object means distinct named data share the line — the precondition
        for false sharing by layout.
        """
        lo = int(line_of(addr, line_size)) * line_size
        return self._overlapping(lo, lo + line_size)

    def line_owners(self, line: int,
                    line_size: int = LINE_SIZE) -> List[Symbol]:
        """``objects_on_line`` by line index instead of byte address."""
        return self._overlapping(line * line_size, (line + 1) * line_size)

    def lines(self) -> List[int]:
        """Every line index covered by at least one symbol, ascending."""
        out: set = set()
        for s in self._symbols:
            if s.size:
                out.update(range(s.first_line, s.last_line + 1))
        return sorted(out)

    def label(self, addr: int) -> str:
        """Best-effort field-level label for an address.

        Falls back to the owning object of the *line* (allocator padding
        inside a region belongs to its object for attribution purposes),
        then to a raw hex label.
        """
        hits = self.resolve(addr)
        if hits:
            return hits[0].field_label(addr)
        on_line = self.objects_on_line(addr)
        if on_line:
            return f"{on_line[0].name}~"
        return f"0x{addr:x}"

    # ------------------------------------------------------------ rendering

    def to_dict(self) -> Dict[str, object]:
        return {
            "n_symbols": len(self._symbols),
            "symbols": [s.to_dict() for s in
                        sorted(self._symbols, key=lambda s: s.base)],
        }

    def render(self) -> str:
        from repro.utils.tables import render_table

        rows = []
        for s in sorted(self._symbols, key=lambda s: s.base):
            rows.append([
                s.name, f"0x{s.base:x}", s.size, s.kind,
                "-" if s.tid is None else f"T{s.tid}",
                f"{s.first_line}..{s.last_line}",
            ])
        return render_table(
            ["object", "base", "bytes", "kind", "owner", "lines"],
            rows, title=f"Symbol table ({len(rows)} objects)",
        )
