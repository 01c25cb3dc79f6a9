"""The sequential mini-programs of Section 2.2.2.

Three element-wise array programs (read / write / read-modify-write) and a
sequential matrix multiply with selectable loop structure.  All expose only
``good`` and ``bad-ma``: with one thread there is nothing to falsely share.
The good/bad-ma pair performs the same element visits; only the order (and
for matmul, the loop nest) differs.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.trace.access import ThreadTrace
from repro.workloads.base import (
    Mode,
    RunConfig,
    Workload,
    ordered_visit,
)
from repro.workloads.builders import interleave, rmw_cols
from repro.workloads.plan import (
    PlanBuilder,
    elems_per_line,
    hostile_bursts,
    visit_kind,
)

_SEQ_MODES = frozenset({Mode.GOOD, Mode.BAD_MA})


class _SeqArrayBase(Workload):
    """Element-wise pass over an array; ``cfg.size`` is the element count.

    ``visit`` lists the accesses each visited element gets, one entry per
    access: True for a store.

    Sizes are chosen so the footprint exceeds L2 (and for the larger sizes
    the DTLB reach), making the good/bad-ma contrast architectural rather
    than accidental: 8-byte elements mean 96k elements = 768 KiB.
    """

    kind = "seq"
    modes = _SEQ_MODES
    train_sizes = (49_152, 131_072, 262_144)
    elem_size = 8
    ipa = 3.0
    visit = (False,)

    def _layout(self, cfg: RunConfig):
        pb = PlanBuilder(self.name, 1)
        return pb, pb.array("a", self.elem_size, cfg.size)

    def _generate(self, cfg: RunConfig) -> Sequence[ThreadTrace]:
        arr = self._layout(cfg)[1].layout()
        order = ordered_visit(cfg.size, cfg.mode, cfg.pattern,
                              self.rng(cfg, 0))
        addrs = arr.addr(order)
        return [ThreadTrace(*interleave([(addrs, w) for w in self.visit]),
                            instr_per_access=self.ipa)]

    def _plan(self, cfg: RunConfig):
        pb, arr = self._layout(cfg)
        writes = sum(self.visit)
        pb.use(arr, 0, reads=(len(self.visit) - writes) * cfg.size,
               writes=writes * cfg.size,
               order=visit_kind(cfg.mode, cfg.pattern),
               bursts=hostile_bursts(cfg.mode, cfg.pattern,
                                     elems_per_line(self.elem_size)))
        return pb.finish(self.ipa)


class SeqRead(_SeqArrayBase):
    """Read every element of an array."""

    name = "seq_read"
    description = "element-wise array read"


class SeqWrite(_SeqArrayBase):
    """Write every element of an array."""

    name = "seq_write"
    description = "element-wise array write"
    ipa = 2.5
    visit = (True,)


class SeqRMW(_SeqArrayBase):
    """Read, modify, write back every element."""

    name = "seq_rmw"
    description = "element-wise read-modify-write"
    ipa = 3.5
    visit = (False, True)


class SeqMatMul(Workload):
    """Sequential rectangular matmul: C[m,n] = A[m,K] x B[K,n], un-hoisted.

    ``cfg.size`` is the inner dimension K; m and n are small and fixed so B
    (K x n) is the large operand.  Both modes execute the identical 4-access
    body ``load A[i,k]; load B[k,j]; load C[i,j]; store C[i,j]`` exactly
    m*n*K times; only the loop nest differs:

    * good   — (i, k, j): B is walked row-wise, unit stride;
    * bad-ma — (i, j, k): B is walked column-wise, one cache line per access,
      the classic hostile nest.
    """

    name = "seq_matmul"
    kind = "seq"
    modes = _SEQ_MODES
    train_sizes = (2_048, 4_096, 8_192)
    description = "sequential matrix multiply (loop-order study)"
    ipa = 3.0
    m_rows = 2
    n_cols = 8

    def _layout(self, cfg: RunConfig):
        big_k = cfg.size
        m, n = self.m_rows, self.n_cols
        pb = PlanBuilder(self.name, 1)
        return (pb, pb.array("A", 8, m * big_k), pb.array("B", 8, big_k * n),
                pb.array("C", 8, m * n))

    def _generate(self, cfg: RunConfig) -> Sequence[ThreadTrace]:
        big_k = cfg.size
        m, n = self.m_rows, self.n_cols
        a, b, c = (s.layout() for s in self._layout(cfg)[1:])
        if cfg.mode is Mode.GOOD:
            # (i, k, j): innermost j sweeps a row of B.
            ii, kk, jj = np.meshgrid(
                np.arange(m), np.arange(big_k), np.arange(n), indexing="ij"
            )
        else:
            # (i, j, k): innermost k sweeps a column of B.
            ii, jj, kk = np.meshgrid(
                np.arange(m), np.arange(n), np.arange(big_k), indexing="ij"
            )
        ii, jj, kk = ii.ravel(), jj.ravel(), kk.ravel()
        body = interleave([(a.addr(ii * big_k + kk), False),
                           (b.addr(kk * n + jj), False),
                           *rmw_cols(c.addr(ii * n + jj))])
        return [ThreadTrace(*body, instr_per_access=self.ipa)]

    def _plan(self, cfg: RunConfig):
        m, n = self.m_rows, self.n_cols
        pb, a, b, c = self._layout(cfg)
        total = m * n * cfg.size
        hostile = cfg.mode is Mode.BAD_MA
        # good (i,k,j): A rows swept once (hot); B rows re-read per i;
        # C held hot throughout.  bad-ma (i,j,k): A rows re-read per j,
        # B walked column-wise so every line cools between touches.
        pb.use(a, 0, reads=total,
               order="scattered" if hostile else "linear",
               bursts=float(n) if hostile else 1.0)
        pb.use(b, 0, reads=total, order="scattered",
               bursts=float(m * n) if hostile else float(m))
        pb.use(c, 0, reads=total, writes=total, order="scattered")
        return pb.finish(self.ipa)


SEQ_PROGRAMS = (SeqRead, SeqWrite, SeqRMW, SeqMatMul)
