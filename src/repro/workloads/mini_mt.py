"""The eight multi-threaded mini-programs of Section 2.2.1.

Three scalar programs (psums, padding, false1), three vector programs
(psumv, pdot, count), and two matrix programs (pmatmult, pmatcompare).
Every thread repeatedly writes its own variable; in bad-fs mode those
variables are packed into shared cache lines.  The vector and matrix
programs additionally support bad-ma (hostile visit order).
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from repro.trace.access import ThreadTrace
from repro.workloads.base import (
    LOOP_IPA,
    Mode,
    RunConfig,
    Workload,
    ordered_visit,
    partition,
)
from repro.workloads.builders import interleave, rmw_cols, with_sync
from repro.workloads.plan import (
    PlanBuilder,
    clamp_range,
    elems_per_line,
    hostile_bursts,
    visit_kind,
)

_ALL3 = frozenset({Mode.GOOD, Mode.BAD_FS, Mode.BAD_MA})
_FS2 = frozenset({Mode.GOOD, Mode.BAD_FS})


def _residues_in(lo: int, hi: int, mod: int, residue: int) -> int:
    """How many integers in [lo, hi) are ``residue`` modulo ``mod``."""

    def upto(x: int) -> int:
        return max(0, (x - residue + mod - 1) // mod)

    return upto(hi) - upto(lo)


class _ScalarBase(Workload):
    """Common machinery for the scalar programs: no vector data at all.

    Each iteration runs ``slot_cols`` on the thread's slot: ``(offset,
    is_write)`` columns, from which the slot's size and the plan's reads,
    writes and fields all follow.
    """

    kind = "mt"
    modes = _FS2
    train_sizes = (2_000, 6_000, 12_000)

    #: Iterations between true-sharing sync touches; varied per program so
    #: the training set sees a range of benign-sharing floors.
    sync_every = 1024

    slot_cols = rmw_cols(0)
    slot_group = "psum"
    ipa = LOOP_IPA

    def _layout(self, cfg: RunConfig):
        pb = PlanBuilder(self.name, cfg.threads)
        sync = pb.line_region("sync", 64, size=8, kind="sync")
        size = 8 + max(off for off, _ in self.slot_cols)
        slots = pb.thread_slots(self.slot_group, cfg.mode, elem_size=size)
        return pb, sync, slots

    def _generate(self, cfg: RunConfig) -> Sequence[ThreadTrace]:
        _, sync, slots = self._layout(cfg)
        threads = []
        for tid in range(cfg.threads):
            base = slots[tid].base
            addrs, writes = interleave(
                [(base + off, w) for off, w in self.slot_cols], n=cfg.size)
            addrs, writes = with_sync(addrs, writes, sync.base, self.sync_every)
            threads.append(ThreadTrace(addrs, writes, instr_per_access=self.ipa))
        return threads

    def _plan(self, cfg: RunConfig):
        pb, sync, slots = self._layout(cfg)
        writes = sum(w for _, w in self.slot_cols)
        reads = len(self.slot_cols) - writes
        fields = len({off for off, _ in self.slot_cols})
        for tid in range(cfg.threads):
            pb.use(slots[tid], tid, reads=reads * cfg.size,
                   writes=writes * cfg.size, stop=fields, order="scattered")
            pb.sync_use(sync, tid, len(self.slot_cols) * cfg.size,
                        self.sync_every)
        return pb.finish(self.ipa)


class PSums(_ScalarBase):
    """Each thread accumulates into its own scalar: ``psum[myid] += f(i)``."""

    name = "psums"
    description = "per-thread scalar accumulation (RMW loop)"
    sync_every = 1024


class Padding(_ScalarBase):
    """Two fields per thread in a struct array; padding decides the layout.

    Each iteration updates both fields (``stats[myid].a``, ``stats[myid].b``),
    doubling the per-line write pressure relative to psums.
    """

    name = "padding"
    description = "per-thread two-field struct updates"
    slot_cols = rmw_cols(0, fields=2)
    slot_group = "stats"
    sync_every = 2048
    ipa = 3.5


class False1(_ScalarBase):
    """Store-only false sharing: ``flag[myid] = i`` in a tight loop."""

    name = "false1"
    description = "per-thread store-only flag updates"
    slot_cols = [(0, True)]
    slot_group = "flag"
    sync_every = 1536
    ipa = 2.5


class _VectorBase(Workload):
    """Vector programs: threads process contiguous shares of shared arrays.

    ``cfg.size`` is the total element count (:meth:`_elements`); the arrays
    are read-shared (benign), the accumulators are the false-sharing site,
    and bad-ma visits each thread's share in a hostile order.
    """

    kind = "mt"
    modes = _ALL3
    train_sizes = (32_768, 98_304, 196_608)
    #: extra problem size used only by some training-plan rows
    extra_size = 393_216
    elem_size = 4
    #: the read-shared input arrays, loaded once per iteration each
    array_names = ("v",)
    slot_group = "psum"
    # Figure 1 declares `int psum[MAXTHREADS]`: 4-byte slots, so even 16
    # threads' accumulators share a single 64-byte line when packed.
    slot_size = 4
    #: ``(mod, residue)``: the slot is read-modify-written only at elements
    #: ``i % mod == residue``; ``(1, 0)`` updates it every iteration.
    predicate: Tuple[int, int] = (1, 0)
    sync_every = 2048
    ipa = LOOP_IPA

    def _elements(self, cfg: RunConfig) -> int:
        return cfg.size

    def _layout(self, cfg: RunConfig):
        pb = PlanBuilder(self.name, cfg.threads)
        sync = pb.line_region("sync", 64, size=8, kind="sync")
        slots = pb.thread_slots(self.slot_group, cfg.mode,
                                elem_size=self.slot_size)
        arrays = [pb.array(name, self.elem_size, self._elements(cfg))
                  for name in self.array_names]
        return pb, sync, slots, arrays

    def _generate(self, cfg: RunConfig) -> Sequence[ThreadTrace]:
        _, sync, slots, arrays = self._layout(cfg)
        layouts = [arr.layout() for arr in arrays]
        n = layouts[0].length
        mod, residue = self.predicate
        threads = []
        for tid, (start, stop) in enumerate(partition(n, cfg.threads)):
            order = start % n + ordered_visit(
                max(stop - start, 1), cfg.mode, cfg.pattern,
                self.rng(cfg, tid)
            )
            addrs, writes = interleave(
                [(arr.addr(order), False) for arr in layouts],
                [(order % mod == residue, rmw_cols(slots[tid].base))])
            addrs, writes = with_sync(addrs, writes, sync.base, self.sync_every)
            threads.append(ThreadTrace(addrs, writes, instr_per_access=self.ipa))
        return threads

    def _plan(self, cfg: RunConfig):
        pb, sync, slots, arrays = self._layout(cfg)
        n = arrays[0].length
        kind = visit_kind(cfg.mode, cfg.pattern)
        bursts = hostile_bursts(cfg.mode, cfg.pattern,
                                elems_per_line(self.elem_size))
        for tid, (start, stop) in enumerate(partition(n, cfg.threads)):
            span = max(stop - start, 1)
            s0, s1 = clamp_range(start, span, n)
            for arr in arrays:
                pb.use(arr, tid, reads=span, start=s0, stop=s1,
                       order=kind, bursts=bursts)
            hits = _residues_in(s0, s1, *self.predicate)
            n_body = span * len(arrays) + pb.rmw_use(slots[tid], tid, hits)
            pb.sync_use(sync, tid, n_body, self.sync_every)
        return pb.finish(self.ipa)


class PSumV(_VectorBase):
    """Per-thread sum over a vector share: ``psum[myid] += v[i]``."""

    name = "psumv"
    description = "parallel vector sum with per-thread accumulators"
    ipa = 3.0


class PDot(_VectorBase):
    """Figure 1's parallel dot product: loads v1[i], v2[i], RMW psum[myid]."""

    name = "pdot"
    description = "parallel dot product (Figure 1)"
    array_names = ("v1", "v2")
    ipa = 3.0


class Count(_VectorBase):
    """Conditional counting: ``if pred(a[i]) count[myid]++``.

    The predicate holds for a fixed 1/64 of the indices (by index bits), so
    all modes do identical work; the accumulator is touched only on
    predicate-true iterations.  Its bad-fs mode is therefore *weak* false
    sharing — rare contended writes — which anchors the low end of the
    false-sharing intensity range the classifier must recognize (the
    streamcluster end of the spectrum, not the pdot end).
    """

    name = "count"
    description = "parallel predicate counting"
    array_names = ("a",)
    slot_group = "count"
    predicate = (64, 1)
    ipa = 3.5


class PMatMult(Workload):
    """Parallel matrix multiply, naive -O0 shape: ``C[i,j] += A[i,k]*B[k,j]``.

    ``cfg.size`` is the matrix dimension n.  good: threads own contiguous
    row blocks of C (private accumulator lines).  bad-fs: C is partitioned
    element-cyclically, so adjacent C elements — same cache line — are
    updated by different threads in the inner loop.  bad-ma: row-block
    partition but the k loop runs in a hostile permuted order, wrecking
    locality in A rows and B columns.
    """

    name = "pmatmult"
    kind = "mt"
    modes = _ALL3
    train_sizes = (16, 24, 32)
    description = "parallel matrix multiply"
    ipa = 3.0
    sync_every = 4096

    def _layout(self, cfg: RunConfig):
        total = cfg.size * cfg.size
        pb = PlanBuilder(self.name, cfg.threads)
        sync = pb.line_region("sync", 64, size=8, kind="sync")
        return (pb, sync, pb.array("A", 8, total), pb.array("B", 8, total),
                pb.array("C", 8, total))

    def _generate(self, cfg: RunConfig) -> Sequence[ThreadTrace]:
        n = cfg.size
        _, sync, *mats = self._layout(cfg)
        a, b, c = (m.layout() for m in mats)
        total = n * n
        if cfg.mode is Mode.BAD_FS:
            owned = [np.arange(tid, total, cfg.threads, dtype=np.int64)
                     for tid in range(cfg.threads)]
        else:
            owned = [np.arange(s, e, dtype=np.int64)
                     for s, e in partition(total, cfg.threads)]
        if cfg.mode is Mode.BAD_MA:
            korder = ordered_visit(n, cfg.mode, cfg.pattern, self.rng(cfg))
        else:
            korder = np.arange(n, dtype=np.int64)

        threads = []
        for tid in range(cfg.threads):
            cells = owned[tid]
            if cells.size == 0:
                cells = np.array([0], dtype=np.int64)
            i = cells // n
            j = cells % n
            # Inner loop over k for each owned cell: 4 accesses per k.
            a_idx = (i[:, None] * n + korder[None, :]).ravel()
            b_idx = (korder[None, :] * n + j[:, None]).ravel()
            addrs, writes = interleave(
                [(a.addr(a_idx), False), (b.addr(b_idx), False),
                 *rmw_cols(np.repeat(c.addr(cells), n))])
            addrs, writes = with_sync(addrs, writes, sync.base, self.sync_every)
            threads.append(ThreadTrace(addrs, writes, instr_per_access=self.ipa))
        return threads

    def _plan(self, cfg: RunConfig):
        n = cfg.size
        pb, sync, a, b, c = self._layout(cfg)
        total = a.length
        epl = elems_per_line(8)
        hostile = cfg.mode is Mode.BAD_MA
        for tid in range(cfg.threads):
            if cfg.mode is Mode.BAD_FS:
                m = len(range(tid, total, cfg.threads))
                cells = (tid, total, cfg.threads) if m else (0, 1, 1)
            else:
                start, stop = partition(total, cfg.threads)[tid]
                m = stop - start
                cells = (start, stop, 1) if m else (0, 1, 1)
            m = max(m, 1)
            # A: the rows of the owned cells, swept once per owned cell.
            last = cells[0] + (m - 1) * cells[2]
            a_rng = ((cells[0] // n) * n, (last // n + 1) * n)
            pb.use(a, tid, reads=m * n, start=a_rng[0], stop=a_rng[1],
                   order="scattered" if hostile else "linear",
                   bursts=float(epl) if hostile else 1.0)
            # B: column walks — every owned cell reads a full column.
            pb.use(b, tid, reads=m * n, order="scattered",
                   bursts=max(1.0, m * float(epl) / n))
            # C: the owned cells, RMW n times each, consecutively.
            pb.use(c, tid, reads=m * n, writes=m * n, start=cells[0],
                   stop=cells[1], step=cells[2], order="linear")
            pb.sync_use(sync, tid, 4 * m * n, self.sync_every)
        return pb.finish(self.ipa)


class PMatCompare(_VectorBase):
    """Parallel matrix compare: per-thread mismatch counters.

    Each thread compares its share of element pairs of two n x n matrices
    (``cfg.size`` is n) and counts mismatches (a fixed eighth of indices,
    by index bits, so work is identical across modes).
    """

    name = "pmatcompare"
    train_sizes = (96, 144, 192)
    description = "parallel matrix comparison"
    elem_size = 8
    array_names = ("A", "B")
    slot_group = "mismatch"
    slot_size = 8
    predicate = (8, 3)
    ipa = 3.0

    def _elements(self, cfg: RunConfig) -> int:
        return cfg.size * cfg.size


MT_PROGRAMS = (PSums, Padding, False1, PSumV, PDot, Count, PMatMult, PMatCompare)
