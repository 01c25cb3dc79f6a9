"""Shared trace-building blocks for the mini-programs.

Every builder keeps the paper's "same computation, different layout/order"
discipline: the access and instruction counts of a workload are identical
across its modes; only addresses (good vs bad-fs) or visit order (good vs
bad-ma) change.
"""

from __future__ import annotations

from typing import Sequence, Tuple

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


def loop_body(
    load_addrs: Sequence[np.ndarray],
    slot: int,
    slot_op: str = "rmw",
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-iteration body: load each stream's element, then touch the slot.

    ``slot_op``: "rmw" (load+store, the `acc += x` shape), "store", or
    "none" (slot untouched — e.g. predicate loops where no accumulation
    happens this iteration).
    """
    if not load_addrs:
        raise ValueError("need at least one load stream")
    n = load_addrs[0].size
    for a in load_addrs:
        if a.size != n:
            raise ValueError("load streams must be equal length")
    extra = {"rmw": 2, "store": 1, "none": 0}[slot_op]
    k = len(load_addrs) + extra
    addrs = np.empty(n * k, dtype=np.int64)
    writes = np.zeros(n * k, dtype=bool)
    for j, a in enumerate(load_addrs):
        addrs[j::k] = a
    if slot_op == "rmw":
        addrs[len(load_addrs)::k] = slot
        addrs[len(load_addrs) + 1::k] = slot
        writes[len(load_addrs) + 1::k] = True
    elif slot_op == "store":
        addrs[len(load_addrs)::k] = slot
        writes[len(load_addrs)::k] = True
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
