"""Set-associative cache with LRU replacement.

Each set is an OrderedDict mapping cache-line index to MESI state; LRU order
is the dict order.  The machine's hot loop accesses sets directly (see
``MulticoreMachine``) — the methods here are the reference interface used by
the miss path, the baselines, and tests.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterator, Optional, Tuple

from repro.errors import SimulationError


def _is_pow2(n: int) -> bool:
    return n > 0 and not (n & (n - 1))


class SetAssociativeCache:
    """An ``nsets x assoc`` cache of line indices with per-set LRU."""

    __slots__ = ("nsets", "assoc", "mask", "sets", "name")

    def __init__(self, total_lines: int, assoc: int, name: str = "cache") -> None:
        if assoc <= 0 or total_lines <= 0 or total_lines % assoc:
            raise SimulationError(
                f"{name}: total_lines ({total_lines}) must be a positive "
                f"multiple of assoc ({assoc})"
            )
        nsets = total_lines // assoc
        self.nsets = nsets
        self.assoc = assoc
        # Power-of-two set counts index with a mask (the hot path); others
        # (e.g. a 12 MiB L3: 12288 sets) fall back to modulo, standing in for
        # the hash-based slice selection real uncores use.
        self.mask = nsets - 1 if _is_pow2(nsets) else 0
        self.sets = [OrderedDict() for _ in range(nsets)]
        self.name = name

    def index(self, line: int) -> int:
        """Set index this line maps to."""
        return (line & self.mask) if self.mask else (line % self.nsets)

    # -- reference interface -------------------------------------------------

    def lookup(self, line: int) -> Optional[int]:
        """State of the line, or None if absent.  Does not update LRU."""
        return self.sets[self.index(line)].get(line)

    def touch(self, line: int) -> Optional[int]:
        """Lookup and mark most-recently-used."""
        s = self.sets[self.index(line)]
        st = s.get(line)
        if st is not None:
            s.move_to_end(line)
        return st

    def set_state(self, line: int, state: int) -> None:
        """Change the state of a resident line."""
        s = self.sets[self.index(line)]
        if line not in s:
            raise SimulationError(f"{self.name}: set_state on absent line {line}")
        s[line] = state

    def insert(self, line: int, state: int) -> Optional[Tuple[int, int]]:
        """Install a line (MRU); return the evicted ``(line, state)`` if any."""
        s = self.sets[self.index(line)]
        if line in s:
            s[line] = state
            s.move_to_end(line)
            return None
        evicted = None
        if len(s) >= self.assoc:
            evicted = s.popitem(last=False)
        s[line] = state
        return evicted

    def remove(self, line: int) -> Optional[int]:
        """Drop a line (invalidation / back-invalidation); return its state."""
        return self.sets[self.index(line)].pop(line, None)

    def __contains__(self, line: int) -> bool:
        return line in self.sets[self.index(line)]

    def __len__(self) -> int:
        return sum(len(s) for s in self.sets)

    def lines(self) -> Iterator[Tuple[int, int]]:
        """Iterate over all resident ``(line, state)`` pairs."""
        for s in self.sets:
            yield from s.items()

    def clear(self) -> None:
        for s in self.sets:
            s.clear()
