"""A declarative builder for custom workloads.

Modeling your own application shouldn't require subclassing
:class:`Workload`: most parallel loops decompose into the same ingredients
the mini-programs and suite models use — streamed input, scattered lookups,
per-thread accumulators (padded or packed), stack traffic, synchronization.
The builder assembles those into a ready workload:

    pool = (WorkloadBuilder("worker_pool", threads_hint=8)
            .stream(elements=40_000, elem_size=8)
            .accumulator(fields=2, packed=True, every=1)
            .gather(table_bytes=32_768, every=6)
            .sync(every=4096)
            .build())
    detector.classify(pool, RunConfig(threads=8, mode="bad-fs", size=40_000))

``mode`` keeps its usual meaning: ``good`` pads the accumulators,
``bad-fs`` packs them, ``bad-ma`` scrambles the stream order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.errors import ConfigError
from repro.memory.layout import LINE_SIZE
from repro.memory.symbols import Symbol
from repro.trace.access import ThreadTrace
from repro.workloads.base import Mode, RunConfig, Workload, ordered_visit, partition
from repro.workloads.builders import interleave, rmw_cols, with_sync
from repro.workloads.plan import (
    PlanBuilder,
    clamp_range,
    elems_per_line,
    hostile_bursts,
    visit_kind,
)


@dataclass(frozen=True)
class _Stream:
    elements: int
    elem_size: int
    shared: bool


@dataclass(frozen=True)
class _Accumulator:
    fields: int
    packed: bool
    every: int
    field_size: int


@dataclass(frozen=True)
class _Gather:
    table_bytes: int
    every: int
    shared: bool


class BuiltWorkload(Workload):
    """The workload a :class:`WorkloadBuilder` produces."""

    kind = "mt"
    modes = frozenset({Mode.GOOD, Mode.BAD_FS, Mode.BAD_MA})

    def __init__(self, name, stream, accumulators, gathers, sync_every,
                 stack_every, ipa, threads_hint):
        self.name = name
        self._stream = stream
        self._accumulators = tuple(accumulators)
        self._gathers = tuple(gathers)
        self._sync_every = sync_every
        self._stack_every = stack_every
        self._ipa = ipa
        self.train_sizes = (stream.elements,) if stream else (16_384,)
        self.description = f"user-built workload ({threads_hint} threads hint)"

    def _layout(self, cfg: RunConfig):
        pb = PlanBuilder(self.name, cfg.threads)
        sync = pb.line_region("sync", 64, size=8, kind="sync")

        acc_syms = []
        for a_i, acc in enumerate(self._accumulators):
            struct = acc.field_size * acc.fields
            if acc.packed and cfg.mode is Mode.BAD_FS:
                stride = struct
            else:
                stride = ((struct + LINE_SIZE - 1) // LINE_SIZE) * LINE_SIZE
            base = pb.alloc.alloc(stride * cfg.threads, align=64)
            group = f"acc{a_i}"
            acc_syms.append([
                pb.symbols.add(Symbol(
                    f"{group}[t{t}]", base + t * stride, struct,
                    kind="struct", tid=t, elem_size=acc.field_size,
                    group=group,
                ))
                for t in range(cfg.threads)
            ])

        stream = self._stream
        n_elems = cfg.size if stream is None else max(cfg.size, cfg.threads)
        elem = stream.elem_size if stream else 8
        input_sym = pb.array("input", elem, n_elems)

        # Per thread, in allocation order: its gather tables (a shared one
        # is allocated on first use), then its stack slot.
        shared_tables: dict = {}
        tables, stacks = [], []
        for tid in range(cfg.threads):
            row = []
            for g_i, g in enumerate(self._gathers):
                if not g.shared:
                    row.append(pb.array(f"table{g_i}[t{tid}]", 8,
                                        g.table_bytes // 8, kind="table",
                                        tid=tid, group=f"table{g_i}"))
                    continue
                if g_i not in shared_tables:
                    shared_tables[g_i] = pb.array(
                        f"table{g_i}", 8, g.table_bytes // 8, kind="table",
                        group=f"table{g_i}")
                row.append(shared_tables[g_i])
            tables.append(row)
            if self._stack_every:
                stacks.append(pb.line_region(
                    f"stack[t{tid}]", 64, size=8, kind="stack", tid=tid,
                    group="stack"))
        return pb, sync, acc_syms, input_sym, tables, stacks

    def _generate(self, cfg: RunConfig) -> Sequence[ThreadTrace]:
        _, sync, acc_syms, input_sym, tables, stacks = self._layout(cfg)
        input_arr = input_sym.layout()
        n_elems = input_arr.length

        threads = []
        bounds = partition(n_elems, cfg.threads)
        for tid, (start, stop) in enumerate(bounds):
            span = max(stop - start, 1)
            rng = self.rng(cfg, tid)
            order = (start % n_elems) + ordered_visit(
                span, cfg.mode, cfg.pattern, rng
            )
            it = np.arange(span, dtype=np.int64)
            blocks = []
            for tsym, g in zip(tables[tid], self._gathers):
                table = tsym.layout()
                hit = it % g.every == g.every - 1
                idx = rng.integers(0, table.length, size=int(hit.sum()))
                blocks.append((hit, [(table.addr(idx), False)]))
            for syms, acc in zip(acc_syms, self._accumulators):
                blocks.append((it % acc.every == acc.every - 1, rmw_cols(
                    syms[tid].base, acc.fields, acc.field_size)))
            if self._stack_every:
                blocks.append((it % self._stack_every == 0,
                               rmw_cols(stacks[tid].base)))
            addrs, writes = interleave(
                [(input_arr.addr(order % n_elems), False)], blocks)
            addrs, writes = with_sync(addrs, writes, sync.base,
                                      self._sync_every)
            threads.append(ThreadTrace(addrs, writes,
                                       instr_per_access=self._ipa))
        return threads

    def _plan(self, cfg: RunConfig):
        pb, sync, acc_syms, input_sym, tables, stacks = self._layout(cfg)
        n_elems = input_sym.length
        kind = visit_kind(cfg.mode, cfg.pattern)
        sbursts = hostile_bursts(cfg.mode, cfg.pattern,
                                 elems_per_line(input_sym.elem_size))

        for tid, (start, stop) in enumerate(partition(n_elems, cfg.threads)):
            span = max(stop - start, 1)
            s0, s1 = clamp_range(start, span, n_elems)
            pb.use(input_sym, tid, reads=span, start=s0, stop=s1,
                   order=kind, bursts=sbursts)
            n_body = span
            for tsym, g in zip(tables[tid], self._gathers):
                n_body += pb.gather_use(tsym, tid, span // g.every, g.every)
            for syms, acc in zip(acc_syms, self._accumulators):
                n_body += pb.rmw_use(syms[tid], tid, span // acc.every,
                                     acc.fields)
            if self._stack_every:
                n_body += pb.rmw_use(stacks[tid], tid,
                                     -(-span // self._stack_every))
            pb.sync_use(sync, tid, n_body, self._sync_every)
        return pb.finish(self._ipa)


class WorkloadBuilder:
    """Fluent construction of :class:`BuiltWorkload` instances."""

    def __init__(self, name: str, threads_hint: int = 4) -> None:
        if not name:
            raise ConfigError("workload needs a name")
        self._name = name
        self._threads_hint = threads_hint
        self._stream: Optional[_Stream] = None
        self._accumulators: List[_Accumulator] = []
        self._gathers: List[_Gather] = []
        self._sync_every = 2048
        self._stack_every = 1
        self._ipa = 3.0

    def stream(self, elements: int, elem_size: int = 4,
               shared: bool = True) -> "WorkloadBuilder":
        """Linear pass over an input array, split across threads."""
        if elements < 1 or elem_size < 1:
            raise ConfigError("stream needs positive elements and elem_size")
        self._stream = _Stream(elements, elem_size, shared)
        return self

    def accumulator(self, fields: int = 1, packed: bool = True,
                    every: int = 1, field_size: int = 8) -> "WorkloadBuilder":
        """Per-thread read-modify-write state.

        ``packed=True`` makes bad-fs mode pack the per-thread structs into
        shared cache lines (the bug); good mode always pads.
        """
        if fields < 1 or every < 1 or field_size < 1:
            raise ConfigError("accumulator parameters must be positive")
        self._accumulators.append(_Accumulator(fields, packed, every,
                                               field_size))
        return self

    def gather(self, table_bytes: int, every: int,
               shared: bool = False) -> "WorkloadBuilder":
        """Scattered lookups into a table (hash probes, pointer chasing)."""
        if table_bytes < 64 or every < 1:
            raise ConfigError("gather needs table_bytes >= 64 and every >= 1")
        self._gathers.append(_Gather(table_bytes, every, shared))
        return self

    def sync(self, every: int) -> "WorkloadBuilder":
        """Accesses between truly-shared synchronization touches."""
        if every < 1:
            raise ConfigError("sync every must be positive")
        self._sync_every = every
        return self

    def stack_traffic(self, every: int) -> "WorkloadBuilder":
        """Iterations between hot private stack RMWs (0 disables)."""
        if every < 0:
            raise ConfigError("stack every must be >= 0")
        self._stack_every = every
        return self

    def instructions_per_access(self, ipa: float) -> "WorkloadBuilder":
        if ipa < 1.0:
            raise ConfigError("ipa must be >= 1")
        self._ipa = ipa
        return self

    def build(self) -> BuiltWorkload:
        if self._stream is None:
            raise ConfigError("a workload needs at least a stream()")
        return BuiltWorkload(
            self._name, self._stream, self._accumulators, self._gathers,
            self._sync_every, self._stack_every, self._ipa,
            self._threads_hint,
        )
