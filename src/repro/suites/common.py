"""A parametric benchmark model shared by the Phoenix and PARSEC suites.

Each benchmark thread executes ``iters`` loop iterations.  Every iteration
loads one element of the thread's private slice of the input (streaming);
every ``gather_period``-th iteration additionally loads a random element of
a gather table (hash lookups, pointer chasing, distance computations —
the bad-memory-access mechanism when the table outgrows the caches); every
``acc_period``-th iteration read-modify-writes the thread's accumulator
fields (the false-sharing mechanism when the accumulator structs of
different threads share cache lines).  Threads also touch a truly-shared
synchronization word periodically, and may burn ``spin_instr`` extra
instructions waiting on locks.

Subclasses override the ``p_*`` parameter methods per (input, opt, threads)
case; the base class turns parameters into traces.  Parameters describe the
*program* (structs, footprints, loop shapes) — never the expected label.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.memory.layout import LINE_SIZE
from repro.memory.symbols import Symbol
from repro.suites.base import SuiteCase, SuiteProgram, opt_effects
from repro.trace.access import ThreadTrace
from repro.workloads.builders import with_sync
from repro.workloads.plan import PlanBuilder, gather_bursts, sweeps_of


class ParamModel(SuiteProgram):
    """Parameter-driven benchmark model."""

    # ---- parameters (override per benchmark) -----------------------------

    def p_iters(self, case: SuiteCase) -> int:
        """Loop iterations per thread."""
        return 20_000

    def p_input_bytes(self, case: SuiteCase) -> int:
        """Total streamed input size in bytes (split across threads)."""
        return 1 << 20

    def p_acc_fields(self, case: SuiteCase) -> int:
        """Fields in the per-thread accumulator struct."""
        return 1

    def p_acc_stride(self, case: SuiteCase) -> Optional[int]:
        """Byte stride between adjacent threads' accumulator structs.

        None means properly padded (one cache line per thread); a value
        smaller than LINE_SIZE packs several threads per line — false
        sharing.
        """
        return None

    def p_acc_period(self, case: SuiteCase) -> int:
        """Iterations between accumulator updates (0 disables them)."""
        return 1

    def p_gather_period(self, case: SuiteCase) -> int:
        """Iterations between gather-table loads (0 disables them)."""
        return 0

    def p_gather_bytes(self, case: SuiteCase) -> int:
        """Gather-table footprint **per thread**."""
        return 1 << 16

    def p_gather_shared(self, case: SuiteCase) -> bool:
        """Whether all threads gather from one shared table."""
        return False

    def p_ipa(self, case: SuiteCase) -> float:
        """Base instructions per access (before the opt-level scale)."""
        return 3.0

    def p_sync_every(self, case: SuiteCase) -> int:
        """Accesses between true-sharing sync-word touches."""
        return 2048

    def p_spin_instr(self, case: SuiteCase, tid: int) -> int:
        """Extra instructions burnt spinning (models lock waiting)."""
        return 0

    def p_stack_every(self, case: SuiteCase) -> int:
        """Iterations between hot stack-slot RMWs (0 disables).

        Compiled loop bodies constantly touch thread-private stack slots
        (spilled temporaries, frame accesses); those accesses are L1-resident
        and dilute the per-instruction miss rates exactly as the
        mini-programs' accumulator traffic does.  Leave at 1 unless the
        modeled inner loop is a tight register-only kernel.
        """
        return 1

    def p_merge_rmws(self, case: SuiteCase) -> int:
        """RMWs each thread performs on the packed result-merge line at the
        end of the run (0 disables).

        Reduction-style programs end with every thread folding its result
        into adjacent slots of one shared structure.  The merge is constant
        work per thread, so its *per-instruction* weight grows with the
        thread count — which is why contention rates creep up with T even
        when the steady-state loop is thread-count-independent.
        """
        return 0

    # ---- layout, trace and plan -------------------------------------------

    def _layout(self, case: SuiteCase):
        """Allocate and name every object; ``dims`` gets the loop sizes."""
        nt = case.threads
        pb = PlanBuilder(self.name, nt)
        sync = pb.line_region("sync", 64, size=8, kind="sync")

        fields = max(1, self.p_acc_fields(case))
        stride = self.p_acc_stride(case)
        struct_bytes = max(8 * fields, 8)
        if stride is None:
            stride = ((struct_bytes + LINE_SIZE - 1) // LINE_SIZE) * LINE_SIZE
        acc_base = pb.alloc.alloc(max(stride * nt, struct_bytes * nt),
                                  align=64)
        acc_syms = [
            pb.symbols.add(Symbol(
                f"acc[t{t}]", acc_base + t * stride, struct_bytes,
                kind="struct", tid=t, elem_size=8, group="acc",
            ))
            for t in range(nt)
        ]
        merge_base = pb.alloc.alloc(8 * nt, align=64)  # packed: 8 slots/line
        merge_syms = [
            pb.symbols.add(Symbol(
                f"merge[t{t}]", merge_base + 8 * t, 8,
                kind="merge", tid=t, elem_size=8, group="merge",
            ))
            for t in range(nt)
        ]

        in_bytes = max(self.p_input_bytes(case), 4 * nt)
        input_sym = pb.array("input", 4, in_bytes // 4)

        g_len = max(self.p_gather_bytes(case), 64) // 8
        shared = (pb.array("gather", 8, g_len, kind="table", group="gather")
                  if self.p_gather_shared(case) else None)
        tables, stacks = [], []
        for tid in range(nt):
            if shared is not None:
                tables.append(shared)
            else:
                tables.append(pb.array(f"gather[t{tid}]", 8, g_len,
                                       kind="table", tid=tid, group="gather"))
            stacks.append(pb.line_region(f"stack[t{tid}]", 64, size=8,
                                         kind="stack", tid=tid, group="stack"))
        pb.dims.update(iters=max(1, self.p_iters(case)), fields=fields,
                       chunk=max(1, input_sym.length // nt))
        return pb, sync, acc_syms, merge_syms, input_sym, tables, stacks

    def _ipa(self, case: SuiteCase) -> float:
        eff = opt_effects(case.opt)
        return max(1.0, self.p_ipa(case) * float(eff["instr_scale"]))

    def _generate(self, case: SuiteCase) -> Sequence[ThreadTrace]:
        pb, sync, acc_syms, merge_syms, input_sym, tables, stacks = (
            self._layout(case))
        iters, fields, chunk_elems = (
            pb.dims["iters"], pb.dims["fields"], pb.dims["chunk"])
        input_arr = input_sym.layout()
        acc_period = self.p_acc_period(case)
        gather_period = self.p_gather_period(case)
        stack_every = self.p_stack_every(case)
        n_merge = self.p_merge_rmws(case)
        ipa = self._ipa(case)
        threads = []
        for tid in range(case.threads):
            rng = self.rng(case, tid)
            table = tables[tid].layout()
            stack_slot = stacks[tid].base

            base_elem = tid * chunk_elems
            stream_idx = base_elem + (np.arange(iters) % chunk_elems)
            stream = input_arr.addr(stream_idx % input_arr.length)

            it = np.arange(iters, dtype=np.int64)
            do_gather = (
                (it % gather_period == gather_period - 1)
                if gather_period > 0 else np.zeros(iters, bool)
            )
            do_acc = (
                (it % acc_period == acc_period - 1)
                if acc_period > 0 else np.zeros(iters, bool)
            )
            do_stack = (
                (it % stack_every == 0)
                if stack_every > 0 else np.zeros(iters, bool)
            )
            counts = (
                1
                + do_gather.astype(np.int64)
                + 2 * fields * do_acc.astype(np.int64)
                + 2 * do_stack.astype(np.int64)
            )
            total = int(counts.sum())
            addrs = np.empty(total, dtype=np.int64)
            writes = np.zeros(total, dtype=bool)
            ends = np.cumsum(counts)
            starts = ends - counts
            addrs[starts] = stream
            pos = starts + 1
            gs = pos[do_gather]
            if gs.size:
                g_idx = rng.integers(0, table.length, size=gs.size)
                addrs[gs] = table.addr(g_idx)
            pos = pos + do_gather.astype(np.int64)
            ss = pos[do_stack]
            addrs[ss] = stack_slot
            addrs[ss + 1] = stack_slot
            writes[ss + 1] = True
            pos = pos + 2 * do_stack.astype(np.int64)
            accs = pos[do_acc]
            acc_addr = acc_syms[tid].base
            for f in range(fields):
                addrs[accs + 2 * f] = acc_addr + 8 * f
                addrs[accs + 2 * f + 1] = acc_addr + 8 * f
                writes[accs + 2 * f + 1] = True
            if n_merge > 0:
                maddr = merge_syms[tid].base
                m_a = np.full(2 * n_merge, maddr, dtype=np.int64)
                m_w = np.zeros(2 * n_merge, dtype=bool)
                m_w[1::2] = True
                addrs = np.concatenate([addrs, m_a])
                writes = np.concatenate([writes, m_w])
            addrs, writes = with_sync(
                addrs, writes, sync.base, self.p_sync_every(case)
            )
            threads.append(
                ThreadTrace(
                    addrs,
                    writes,
                    instr_per_access=ipa,
                    extra_instructions=max(0, self.p_spin_instr(case, tid)),
                )
            )
        return threads

    def _plan(self, case: SuiteCase):
        pb, sync, acc_syms, merge_syms, input_sym, tables, stacks = (
            self._layout(case))
        iters, fields, chunk = (
            pb.dims["iters"], pb.dims["fields"], pb.dims["chunk"])
        acc_period = self.p_acc_period(case)
        gather_period = self.p_gather_period(case)
        stack_every = self.p_stack_every(case)
        sync_every = self.p_sync_every(case)
        n_merge = max(0, self.p_merge_rmws(case))
        extra = []
        for tid in range(case.threads):
            span = min(iters, chunk)
            sweeps = sweeps_of(iters, chunk)
            pb.use(input_sym, tid, reads=iters, start=tid * chunk,
                   stop=tid * chunk + span,
                   order="linear" if sweeps <= 1 else "scattered",
                   bursts=1.0 if span * 4 <= LINE_SIZE else sweeps)
            n_body = iters

            g_hits = iters // gather_period if gather_period > 0 else 0
            if g_hits:
                lines = max(1, tables[tid].size // LINE_SIZE)
                pb.use(tables[tid], tid, reads=g_hits, order="scattered",
                       bursts=gather_bursts(g_hits, lines,
                                            gather_period * float(lines)))
                n_body += g_hits

            a_hits = iters // acc_period if acc_period > 0 else 0
            if a_hits:
                pb.use(acc_syms[tid], tid, reads=a_hits * fields,
                       writes=a_hits * fields, stop=fields,
                       order="scattered")
                n_body += 2 * fields * a_hits

            s_hits = ((iters + stack_every - 1) // stack_every
                      if stack_every > 0 else 0)
            if s_hits:
                pb.use(stacks[tid], tid, reads=s_hits, writes=s_hits,
                       order="scattered")
                n_body += 2 * s_hits

            if n_merge:
                pb.use(merge_syms[tid], tid, reads=n_merge, writes=n_merge,
                       order="scattered", phase=1)
                n_body += 2 * n_merge

            pb.sync_use(sync, tid, n_body, sync_every)
            extra.append(max(0, self.p_spin_instr(case, tid)))
        return pb.finish(self._ipa(case), extra=extra)


def mb(n: float) -> int:
    """Megabytes to bytes (scaled-machine convention: divide real inputs
    by 4 before calling, as problem sizes follow the 1:4 scaled caches)."""
    return int(n * (1 << 20))


def kb(n: float) -> int:
    return int(n * 1024)
