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
from repro.workloads.builders import interleave, rmw_cols, with_sync
from repro.workloads.plan import PlanBuilder, sweeps_of


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
        it = np.arange(iters, dtype=np.int64)
        in_chunk = it % chunk_elems
        # Every thread shares the block masks; a period of 0 disables its
        # block (the max() only keeps the unused mask's modulo defined).
        do_gather = it % max(gather_period, 1) == gather_period - 1
        do_stack = it % max(stack_every, 1) == 0
        do_acc = it % max(acc_period, 1) == acc_period - 1
        threads = []
        for tid in range(case.threads):
            stream_idx = tid * chunk_elems + in_chunk
            blocks = []
            if gather_period > 0:
                table = tables[tid].layout()
                g_idx = self.rng(case, tid).integers(
                    0, table.length, size=int(do_gather.sum()))
                blocks.append((do_gather, [(table.addr(g_idx), False)]))
            if stack_every > 0:
                blocks.append((do_stack, rmw_cols(stacks[tid].base)))
            if acc_period > 0:
                blocks.append((do_acc, rmw_cols(acc_syms[tid].base, fields)))
            addrs, writes = interleave(
                [(input_arr.addr(stream_idx % input_arr.length), False)],
                blocks)
            if n_merge > 0:
                m_a, m_w = interleave(rmw_cols(merge_syms[tid].base),
                                      n=n_merge)
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
            if gather_period > 0:
                n_body += pb.gather_use(tables[tid], tid,
                                        iters // gather_period, gather_period)
            if acc_period > 0:
                n_body += pb.rmw_use(acc_syms[tid], tid, iters // acc_period,
                                     fields)
            if stack_every > 0:
                n_body += pb.rmw_use(stacks[tid], tid,
                                     -(-iters // stack_every))
            n_body += pb.rmw_use(merge_syms[tid], tid, n_merge, phase=1)
            pb.sync_use(sync, tid, n_body, sync_every)
            extra.append(max(0, self.p_spin_instr(case, tid)))
        return pb.finish(self._ipa(case), extra=extra)


def mb(n: float) -> int:
    """Megabytes to bytes (scaled-machine convention: divide real inputs
    by 4 before calling, as problem sizes follow the 1:4 scaled caches)."""
    return int(n * (1 << 20))


def kb(n: float) -> int:
    return int(n * 1024)
