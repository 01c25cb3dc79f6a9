"""The one loop-body writer for every generator: the mini-programs, the
suite models and built workloads.

Every generator keeps the paper's "same computation, different layout/order"
discipline: the access and instruction counts of a workload are identical
across its modes; only addresses (good vs bad-fs) or visit order (good vs
bad-ma) change.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigError

#: Iterations between touches of the truly-shared synchronization word.
#: Real pthreads programs are never coherence-silent: progress counters,
#: barrier words and lock state produce a low rate of genuine sharing.  This
#: floor is what keeps the learned HITM threshold honest — it must separate
#: false sharing from ordinary synchronization, not from zero.
SYNC_EVERY = 1024

#: One access column of a loop body: an address (a scalar, or one address
#: per iteration the column runs on) and whether the access stores.
Col = Tuple[object, bool]


def rmw_cols(addr, fields: int = 1, field_size: int = 8) -> List[Col]:
    """The columns of ``acc.f += x`` on each of ``fields`` fields: load
    then store of ``addr + f * field_size``."""
    return [(addr + f * field_size, is_write)
            for f in range(fields) for is_write in (False, True)]


def interleave(
    cols: Sequence[Col],
    blocks: Sequence[Tuple[np.ndarray, Sequence[Col]]] = (),
    n: Optional[int] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Lay a loop's iterations out back to back as one access stream.

    Iteration ``i`` runs one access per ``(addr, is_write)`` column in
    ``cols``, then each ``(mask, cols)`` block, in order, whose boolean
    ``mask[i]`` is set.  ``addr`` is a scalar or holds one address per
    iteration the column runs on.  There are ``n`` iterations, by default
    the length of the first column's addresses.

    When every mask is all-true the body is fixed, and its columns are
    written with one strided store each (~10x faster than the masked walk).
    """
    if n is None:
        n = np.size(cols[0][0])
    if all(mask.all() for mask, _ in blocks):
        cols = [*cols, *(col for _, bcols in blocks for col in bcols)]
        k = len(cols)
        addrs = np.empty(n * k, dtype=np.int64)
        writes = np.empty(n * k, dtype=bool)
        for j, (addr, is_write) in enumerate(cols):
            addrs[j::k] = addr
            writes[j::k] = is_write
        return addrs, writes
    counts = np.full(n, len(cols), dtype=np.int64)
    for mask, bcols in blocks:
        counts += len(bcols) * mask
    total = int(counts.sum())
    addrs = np.empty(total, dtype=np.int64)
    writes = np.zeros(total, dtype=bool)
    pos = np.cumsum(counts) - counts
    _put(addrs, writes, pos, cols)
    pos = pos + len(cols)
    for mask, bcols in blocks:
        _put(addrs, writes, pos[mask], bcols)
        pos = pos + len(bcols) * mask
    return addrs, writes


def _put(addrs: np.ndarray, writes: np.ndarray, at: np.ndarray,
         cols: Sequence[Col]) -> None:
    """Write column ``j`` of ``cols`` at positions ``at + j``."""
    for j, (addr, is_write) in enumerate(cols):
        idx = at + j
        addrs[idx] = addr
        if is_write:
            writes[idx] = True


def sync_count(n_body: int, every: int) -> int:
    """How many sync RMWs :func:`with_sync` splices into ``n_body``
    accesses: one after each full ``every``."""
    if every <= 0:
        raise ConfigError("sync period must be positive")
    return n_body // every


def with_sync(
    addrs: np.ndarray,
    writes: np.ndarray,
    sync_word: int,
    every: int = SYNC_EVERY,
) -> Tuple[np.ndarray, np.ndarray]:
    """Splice a read-modify-write of the shared ``sync_word`` in after every
    ``every`` accesses: ``m`` rows of ``every`` accesses plus the RMW pair,
    then the remainder."""
    m = sync_count(addrs.size, every)
    out = []
    for col, pair in ((addrs, sync_word), (writes, (False, True))):
        spliced = np.empty(col.size + 2 * m, dtype=col.dtype)
        rows = spliced[:m * (every + 2)].reshape(m, every + 2)
        rows[:, :every] = col[:m * every].reshape(m, every)
        rows[:, every:] = pair
        spliced[m * (every + 2):] = col[m * every:]
        out.append(spliced)
    return out[0], out[1]
