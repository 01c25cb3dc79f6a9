"""Per-layer ledger: busy time and work counts, recorded outside-in.

The benchmark never edits the program.  It times each layer by wrapping
the call into that layer from its own files: around a function call in
the offline pipeline, or by replacing a method with a timed wrapper in the
serving processes (``sitecustomize.py``).  Only ``--trace 1`` runs do this;
``--trace 0`` runs measure the end-to-end metrics with no wrapper in place.
"""

from __future__ import annotations

import functools
import time
from typing import Callable, Dict, List


class Ledger:
    """``name -> [calls, busy seconds, units]`` for every timed layer.

    ``units`` is the layer's own work count (rows classified, accesses
    simulated); it defaults to one per call.
    """

    def __init__(self) -> None:
        self.rows: Dict[str, List[float]] = {}

    def add(self, name: str, seconds: float, units: float = 1) -> None:
        row = self.rows.get(name)
        if row is None:
            row = self.rows[name] = [0, 0.0, 0]
        row[0] += 1
        row[1] += seconds
        row[2] += units

    def snapshot(self) -> Dict[str, List[float]]:
        return {name: list(row) for name, row in self.rows.items()}

    def wrap(self, owner, attr: str, name: str,
             units: Callable = None) -> None:
        """Replace ``owner.attr`` with a wrapper that times every call.

        ``units(args, result)`` gives the work count of one call.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            result = original(*args, **kwargs)
            self.add(name, time.perf_counter() - t0,
                     units(args, result) if units else 1)
            return result

        setattr(owner, attr, timed)


def delta(after: Dict[str, List[float]],
          before: Dict[str, List[float]]) -> Dict[str, List[float]]:
    """Per-layer difference of two snapshots (the timed window only)."""
    out = {}
    for name, row in after.items():
        base = before.get(name, [0, 0.0, 0])
        out[name] = [row[i] - base[i] for i in range(3)]
    return out
