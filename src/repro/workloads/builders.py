"""Shared trace-building blocks for the mini-programs.

Every builder keeps the paper's "same computation, different layout/order"
discipline: the access and instruction counts of a workload are identical
across its modes; only addresses (good vs bad-fs) or visit order (good vs
bad-ma) change.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

#: Iterations between touches of the truly-shared synchronization word.
#: Real pthreads programs are never coherence-silent: progress counters,
#: barrier words and lock state produce a low rate of genuine sharing.  This
#: floor is what keeps the learned HITM threshold honest — it must separate
#: false sharing from ordinary synchronization, not from zero.
SYNC_EVERY = 1024


def rmw(addr: int, n: int) -> Tuple[np.ndarray, np.ndarray]:
    """``n`` read-modify-write pairs to one address (load, store, load, ...)."""
    addrs = np.full(2 * n, addr, dtype=np.int64)
    writes = np.zeros(2 * n, dtype=bool)
    writes[1::2] = True
    return addrs, writes


def stores(addr: int, n: int) -> Tuple[np.ndarray, np.ndarray]:
    """``n`` plain stores to one address."""
    return np.full(n, addr, dtype=np.int64), np.ones(n, dtype=bool)


def rmw_cols(addr, fields: int = 1,
             field_size: int = 8) -> List[Tuple[object, bool]]:
    """An :func:`interleave` block's columns for ``acc.f += x`` on each of
    ``fields`` fields: load then store of ``addr + f * field_size``."""
    return [(addr + f * field_size, is_write)
            for f in range(fields) for is_write in (False, True)]


def interleave(
    loads: Sequence[np.ndarray],
    blocks: Sequence[Tuple[np.ndarray, Sequence[Tuple[object, bool]]]],
) -> Tuple[np.ndarray, np.ndarray]:
    """Lay a loop's iterations out back to back as one access stream.

    Iteration ``i`` loads ``col[i]`` of every column in ``loads`` (equal
    length), then runs each ``(mask, cols)`` block, in order, whose boolean
    ``mask[i]`` is set: one access per ``(addr, is_write)`` column, where
    ``addr`` is a scalar or holds one address per set mask element.  Fixed
    bodies are faster with :func:`loop_body`'s strided stores.
    """
    counts = np.full(loads[0].size, len(loads), dtype=np.int64)
    for mask, cols in blocks:
        counts += len(cols) * mask
    total = int(counts.sum())
    addrs = np.empty(total, dtype=np.int64)
    writes = np.zeros(total, dtype=bool)
    pos = np.cumsum(counts) - counts
    for col in loads:
        addrs[pos] = col
        pos = pos + 1
    for mask, cols in blocks:
        at = pos[mask]
        for j, (addr, is_write) in enumerate(cols):
            addrs[at + j] = addr
            if is_write:
                writes[at + j] = True
        pos = pos + len(cols) * mask
    return addrs, writes


def loop_body(
    load_addrs: Sequence[np.ndarray], slot: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Fixed per-iteration body: load each stream's element, then
    read-modify-write the slot (the ``acc += x`` shape).

    The :func:`interleave` of ``load_addrs`` with an every-iteration
    ``rmw_cols(slot)`` block, written with strided stores.
    """
    if not load_addrs:
        raise ValueError("need at least one load stream")
    n = load_addrs[0].size
    for a in load_addrs:
        if a.size != n:
            raise ValueError("load streams must be equal length")
    k = len(load_addrs) + 2
    addrs = np.empty(n * k, dtype=np.int64)
    writes = np.zeros(n * k, dtype=bool)
    for j, a in enumerate(load_addrs):
        addrs[j::k] = a
    addrs[k - 2::k] = slot
    addrs[k - 1::k] = slot
    writes[k - 1::k] = True
    return addrs, writes


def inject_periodic(
    addrs: np.ndarray,
    writes: np.ndarray,
    every: int,
    ins_addrs: np.ndarray,
    ins_writes: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Insert a fixed access block after every ``every`` accesses.

    Used for the periodic truly-shared synchronization touch.
    """
    if every <= 0:
        raise ValueError("every must be positive")
    n = addrs.size
    pos = np.arange(every, n + 1, every, dtype=np.int64)
    if pos.size == 0:
        return addrs, writes
    k = ins_addrs.size
    posr = np.repeat(pos, k)
    return (
        np.insert(addrs, posr, np.tile(ins_addrs, pos.size)),
        np.insert(writes, posr, np.tile(ins_writes, pos.size)),
    )


def with_sync(
    addrs: np.ndarray,
    writes: np.ndarray,
    sync_word: int,
    every: int = SYNC_EVERY,
) -> Tuple[np.ndarray, np.ndarray]:
    """Add the periodic true-sharing RMW on the shared sync word."""
    ia, iw = rmw(sync_word, 1)
    return inject_periodic(addrs, writes, every, ia, iw)
