"""The multicore machine: runs an interleaved trace through MESI caches.

This is the substrate that replaces the paper's physical Westmere DP system.
``MulticoreMachine.run`` consumes a :class:`ProgramTrace`, simulates per-core
L1D+L2 caches, a shared L3, per-core DTLBs, a next-line prefetcher, and a
snooping bus with MESI coherence, and returns raw hardware event counts
(the inputs to the PMU layer) plus a cycle-accurate-ish execution time.

The access loop is written twice.  ``_drive_ref`` is the executable
specification: one Python iteration per access over plain lists, with the
L1-hit fast path inlined and only misses and upgrades calling out to helper
methods.  ``drive.c`` transliterates it, operation for operation, and
:mod:`repro.coherence.native` builds and loads it; ``fast=True`` (the
default) drives every window with the compiled loop and ``fast=False`` with
the spec.  Both give bit-identical results (DESIGN §6).  Without a C
compiler the machine warns once and drives with the spec.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.coherence import native
from repro.coherence.cache import SetAssociativeCache
from repro.coherence.protocol import EXCLUSIVE, MODIFIED, SHARED
from repro.coherence.timing import DEFAULT_LATENCY, LatencyModel
from repro.errors import SimulationError
from repro.memory.layout import LINE_SIZE
from repro.telemetry.core import TELEMETRY
from repro.trace.access import ProgramTrace
from repro.trace.streams import (
    DEFAULT_CHUNK,
    DEFAULT_SEGMENT,
    interleave_stream,
)

#: Accesses between resets of the per-line contender bitmasks.
_CONTENTION_EPOCH = 8192


@dataclass(frozen=True)
class MachineSpec:
    """Geometry of the simulated machine (defaults: Xeon X5690, Westmere DP)."""

    cores: int = 12
    sockets: int = 2
    l1_kib: int = 32
    l1_assoc: int = 8
    l2_kib: int = 256
    l2_assoc: int = 8
    l3_mib: int = 12
    l3_assoc: int = 16
    tlb_entries: int = 64
    freq_ghz: float = 3.46
    base_cpi: float = 0.7
    name: str = "westmere-dp-x5690"

    def __post_init__(self) -> None:
        if self.cores <= 0 or self.sockets <= 0 or self.cores % self.sockets:
            raise SimulationError("cores must be a positive multiple of sockets")
        for fld in ("l1_kib", "l1_assoc", "l2_kib", "l2_assoc", "l3_mib",
                    "l3_assoc", "tlb_entries"):
            if getattr(self, fld) <= 0:
                raise SimulationError(f"{fld} must be positive")
        if self.freq_ghz <= 0 or self.base_cpi <= 0:
            raise SimulationError("freq_ghz and base_cpi must be positive")

    @property
    def cores_per_socket(self) -> int:
        return self.cores // self.sockets

    @property
    def l1_lines(self) -> int:
        return self.l1_kib * 1024 // LINE_SIZE

    @property
    def l2_lines(self) -> int:
        return self.l2_kib * 1024 // LINE_SIZE

    @property
    def l3_lines(self) -> int:
        return self.l3_mib * 1024 * 1024 // LINE_SIZE

    def socket_of(self, core: int) -> int:
        return core // self.cores_per_socket


#: The paper's testbed: 12-core (2x6) Xeon X5690 Westmere DP.
WESTMERE_SPEC = MachineSpec()

#: The same machine with the memory hierarchy scaled 1:4 (8 KiB L1, 64 KiB
#: L2, 1 MiB L3, 24-entry DTLB).  Trace-driven experiments use this with
#: problem sizes scaled down by the same factor — the standard scaled-
#: working-set technique — so the full training + detection pipeline runs in
#: minutes while cache/TLB pressure ratios match the full-size machine.
SCALED_WESTMERE = MachineSpec(
    l1_kib=8,
    l2_kib=64,
    l3_mib=1,
    tlb_entries=24,
    name="westmere-dp-scaled-1to4",
)


@dataclass
class SimulationResult:
    """Raw event counts and timing from one simulated run.

    ``counts`` maps raw counter mnemonics (see :mod:`repro.pmu.events`) to
    exact simulated values — the PMU layer adds measurement noise and
    multiplexing on top.
    """

    counts: Dict[str, float]
    cycles_per_core: List[float]
    instructions_per_core: List[int]
    seconds: float
    nthreads: int
    spec: MachineSpec
    name: str = "anonymous"
    meta: Dict[str, object] = field(default_factory=dict)
    #: PEBS-style HITM samples (requester, holder, byte addr, is_write);
    #: populated only when the machine was built with hitm_sample_period.
    hitm_samples: List[tuple] = field(default_factory=list)

    @property
    def instructions(self) -> int:
        return int(sum(self.instructions_per_core))

    @property
    def cycles(self) -> float:
        return float(max(self.cycles_per_core)) if self.cycles_per_core else 0.0

    def normalized(self, key: str) -> float:
        """Count per retired instruction (the paper's normalization)."""
        instr = self.instructions
        if instr <= 0:
            raise SimulationError("no instructions retired; cannot normalize")
        return self.counts.get(key, 0.0) / instr


class MulticoreMachine:
    """Trace-driven simulator of a small cache-coherent multiprocessor."""

    def __init__(
        self,
        spec: Optional[MachineSpec] = None,
        latency: Optional[LatencyModel] = None,
        prefetch: bool = True,
        hitm_sample_period: int = 0,
        fast: bool = True,
    ) -> None:
        """``hitm_sample_period`` > 0 enables PEBS-style sampling: every
        period-th HITM snoop records (requester core, holder core, byte
        address, is_write) into ``SimulationResult.hitm_samples`` — the raw
        material of a perf-c2c-style contention report.

        ``fast=True`` drives with the compiled loop (path ``'native'``),
        ``fast=False`` with the Python spec (path ``'ref'``); the results
        are bit-identical."""
        if hitm_sample_period < 0:
            raise SimulationError("hitm_sample_period must be >= 0")
        if not isinstance(fast, bool):
            raise SimulationError(f"fast must be a bool, got {fast!r}")
        self.spec = spec or MachineSpec()
        self.latency = latency or DEFAULT_LATENCY
        self.prefetch = prefetch
        self.hitm_sample_period = hitm_sample_period
        self.fast = fast
        #: Per-run path histogram (``{'native': 3}``): which loop drove each
        #: window of the most recent :meth:`run`/:meth:`run_sliced` call
        #: (``'ref'`` also when ``fast=True`` found no C compiler).  Always
        #: maintained (one dict increment per window) so benchmarks can
        #: report the path without enabling telemetry.
        self.path_counts: Dict[str, int] = {}
        #: Same histogram weighted by *accesses* instead of windows — the
        #: routing-coverage metric ``repro-bench`` gates on.
        self.path_accesses: Dict[str, int] = {}

    # ------------------------------------------------------------------ run

    def run(
        self,
        program: ProgramTrace,
        chunk: int = DEFAULT_CHUNK,
        keep_state: bool = False,
        max_accesses: int = DEFAULT_SEGMENT,
    ) -> SimulationResult:
        """Simulate ``program`` and return raw counts + timing.

        ``keep_state=True`` leaves the final coherence state on the machine
        (``_l1``, ``_l2``, ``_l3``, ``_contenders`` and the ``_RunState``
        with the DTLBs as ``_state``) for post-mortem inspection — used by
        coherence-invariant and equivalence tests.  ``max_accesses`` bounds the merge
        window (see :meth:`run_sliced`).
        """
        return self.run_sliced(program, 1, chunk=chunk,
                               keep_state=keep_state,
                               max_accesses=max_accesses)[0]

    def run_sliced(
        self,
        program: ProgramTrace,
        n_slices: int,
        chunk: int = DEFAULT_CHUNK,
        keep_state: bool = False,
        max_accesses: int = DEFAULT_SEGMENT,
    ) -> List[SimulationResult]:
        """Simulate ``program`` in ``n_slices`` consecutive time slices.

        Returns one :class:`SimulationResult` per slice, each holding the
        event counts and cycles of *that slice only* while cache/TLB state
        carries over between slices (warm caches) — the substrate for the
        paper's future-work idea of detecting false sharing "in short time
        slices" rather than over whole executions (Section 6).

        The merged order is driven window by window from
        :func:`~repro.trace.streams.interleave_stream` (at most
        ``max_accesses`` merged rows resident), cut at the slice bounds.
        Every piece of a slice accumulates into that slice's one tally
        block, continuing the reference loop's accumulation sequence:
        penalties and stall cycles are order-sensitive IEEE sums, so the
        result is bitwise independent of the window size.
        """
        if n_slices < 1:
            raise SimulationError("n_slices must be >= 1")
        nt = program.nthreads
        self._setup_run(nt)
        state = _RunState(nt, self.spec.tlb_entries)
        lib = native.load() if self.fast else None
        run = (None if lib is None
               else native.NativeRun(lib, self, state, _CONTENTION_EPOCH))
        total = program.total_accesses
        bounds = [round(i * total / n_slices) for i in range(n_slices + 1)]
        tallies = [_SegmentTallies(_EventTallies(), nt)
                   for _ in range(n_slices)]
        s_i = pos = 0
        for window in interleave_stream(program, chunk=chunk,
                                        max_accesses=max_accesses):
            lo, end = 0, len(window)
            while lo < end:
                while bounds[s_i + 1] <= pos:
                    s_i += 1
                hi = min(end, lo + bounds[s_i + 1] - pos)
                self._drive(window.core[lo:hi], window.addr[lo:hi],
                            window.is_write[lo:hi], state, tallies[s_i], run)
                pos += hi - lo
                lo = hi

        results = [self._slice_result(program, seg, i, n_slices)
                   for i, seg in enumerate(tallies)]
        # Samples belong to the whole run; every slice shares the list.
        for res in results:
            res.hitm_samples = self._hitm_samples
        # Free the big structures before returning (unless a test wants
        # to inspect the final coherence state).
        if keep_state:
            if run is not None:
                run.export(self, state)
            self._state = state
        else:
            del self._l1, self._l2, self._l3, self._nt, self._contenders
        return results

    def _setup_run(self, nt: int) -> None:
        """Fresh per-run coherence structures (persist across slices)."""
        spec = self.spec
        if nt > spec.cores:
            raise SimulationError(
                f"program has {nt} threads but machine has {spec.cores} cores"
            )
        self._l1 = [SetAssociativeCache(spec.l1_lines, spec.l1_assoc,
                                        f"L1-{c}") for c in range(nt)]
        self._l2 = [SetAssociativeCache(spec.l2_lines, spec.l2_assoc,
                                        f"L2-{c}") for c in range(nt)]
        self._l3 = SetAssociativeCache(spec.l3_lines, spec.l3_assoc, "L3")
        self._nt = nt
        # Cores recently fighting over each line (bitmask); decayed by
        # periodic reset so migratory lines don't look contended forever.
        self._contenders: Dict[int, int] = {}
        self._hitm_samples: List[tuple] = []
        self._hitm_seen = 0
        self._cur_addr = -1
        self.path_counts = {}
        self.path_accesses = {}

    def _slice_result(self, program: ProgramTrace, seg: "_SegmentTallies",
                      s_i: int, n_slices: int) -> SimulationResult:
        """Build one slice's :class:`SimulationResult` from its tallies."""
        spec = self.spec
        nt = program.nthreads
        # Attribute instructions to the slice by the accesses each
        # thread completed in it (spin extras spread proportionally).
        instr = []
        for c in range(nt):
            t = program.threads[c]
            share = seg.accesses[c]
            frac = share / t.n_accesses if t.n_accesses else 0.0
            instr.append(int(round(share * t.instr_per_access
                                   + frac * t.extra_instructions)))
        cycles = [i * spec.base_cpi + p
                  for i, p in zip(instr, seg.penalty)]
        seconds = (max(cycles) / (spec.freq_ghz * 1e9)) if cycles else 0.0
        counts = seg.ev.as_dict()
        counts.update({
            "INST_RETIRED.ANY": float(sum(instr)),
            "CPU_CLK_UNHALTED.CORE": float(sum(cycles)),
            "MEM_INST_RETIRED.LOADS": float(seg.n_reads),
            "MEM_INST_RETIRED.STORES": float(seg.n_writes),
            "DTLB_MISSES.ANY": float(seg.n_dtlb),
            "MEM_STORE_RETIRED.DTLB_MISS": float(seg.n_dtlb_st),
            "L1D.REPL": float(seg.n_l1_miss),
            "L1D_CACHE_LD": float(seg.n_reads),
            "L1D_CACHE_ST": float(seg.n_writes),
            "MEM_LOAD_RETIRED.L1D_HIT": float(
                max(0, seg.n_reads - seg.n_l1_miss)),
            "MEM_LOAD_RETIRED.HIT_LFB": float(seg.n_hit_lfb),
            "L2_WRITE.RFO.S_STATE": float(
                seg.n_rfo_s + seg.ev.l2_rfo_hit_s),
        })
        counts.update(_derive_counts(counts, seg.ev))
        meta = dict(program.meta)
        if n_slices > 1:
            meta.update({"slice": s_i, "n_slices": n_slices})
        return SimulationResult(
            counts=counts,
            cycles_per_core=cycles,
            instructions_per_core=instr,
            seconds=seconds,
            nthreads=nt,
            spec=spec,
            name=(program.name if n_slices == 1
                  else f"{program.name}#s{s_i}"),
            meta=meta,
        )

    def _drive(self, cores_a, addrs_a, writes_a, state: "_RunState",
               seg: "_SegmentTallies",
               run: "Optional[native.NativeRun]") -> None:
        """Process one piece of the merged trace into ``seg``, with the
        compiled loop when ``run`` holds its state, else with the spec.

        With :data:`repro.telemetry.core.TELEMETRY` enabled, each piece
        records a ``sim.drive`` span (path taken, accesses, accesses/s)
        and the path counters; disabled (the default) the only cost is the
        single ``enabled`` attribute check below.
        """
        tel = TELEMETRY
        n = int(len(cores_a))
        path = "ref" if run is None else "native"
        if tel.enabled:
            t0 = time.perf_counter()
            with tel.span("sim.drive", accesses=n) as sp:
                self._drive_path(cores_a, addrs_a, writes_a, state, seg, run)
            dt = time.perf_counter() - t0
            rate = round(n / dt) if dt > 0 else 0
            sp.set(path=path, accesses_per_s=rate)
            tel.count("sim.drive.segments")
            tel.count("sim.drive.accesses", n)
            tel.count(f"sim.drive.path.{path}")
            tel.gauge("sim.drive.accesses_per_s", rate)
        else:
            self._drive_path(cores_a, addrs_a, writes_a, state, seg, run)
        self.path_counts[path] = self.path_counts.get(path, 0) + 1
        self.path_accesses[path] = self.path_accesses.get(path, 0) + n

    def _drive_path(self, cores_a, addrs_a, writes_a, state: "_RunState",
                    seg: "_SegmentTallies",
                    run: "Optional[native.NativeRun]") -> None:
        if run is None:
            self._drive_ref(cores_a, addrs_a, writes_a, state, seg)
        else:
            self._hitm_samples += run.drive(cores_a, addrs_a, writes_a, seg)

    def _drive_ref(self, cores_a, addrs_a, writes_a, state: "_RunState",
                   seg: "_SegmentTallies") -> None:
        """Reference path: one Python iteration per access (the spec)."""
        cores_l = (cores_a.tolist() if isinstance(cores_a, np.ndarray)
                   else list(cores_a))
        addrs_l = (addrs_a.tolist() if isinstance(addrs_a, np.ndarray)
                   else list(addrs_a))
        writes_l = (writes_a.tolist() if isinstance(writes_a, np.ndarray)
                    else list(writes_a))
        lat = self.latency
        ev = seg.ev

        l1_masks = [c.mask for c in self._l1]
        if self._l1 and self._l1[0].nsets > 1 and l1_masks[0] == 0:
            raise SimulationError("L1 set count must be a power of two")
        l1_sets = [c.sets for c in self._l1]
        l2_objs = self._l2
        tlbs = state.tlbs
        tlb_cap = state.tlb_cap
        last_miss_line = state.last_miss_line
        lfb_line = state.lfb_line
        lfb_window = state.lfb_window
        penalty = seg.penalty
        accesses = seg.accesses
        tlb_walk_eff = lat.tlb_walk * 0.5
        prefetch_on = self.prefetch
        service_miss = self._service_miss
        upgrade_shared = self._upgrade_shared

        n_dtlb = 0
        n_dtlb_st = 0
        n_l1_miss = 0
        n_hit_lfb = 0
        n_rfo_s = 0
        n_writes = 0
        decay_countdown = state.decay_countdown

        for c, addr, w in zip(cores_l, addrs_l, writes_l):
            line = addr >> 6
            page = addr >> 12
            self._cur_addr = addr
            accesses[c] += 1
            if w:
                n_writes += 1
            decay_countdown -= 1
            if not decay_countdown:
                self._contenders.clear()
                decay_countdown = _CONTENTION_EPOCH
            # --- DTLB ---------------------------------------------------
            tlb = tlbs[c]
            if page in tlb:
                tlb.move_to_end(page)
            else:
                n_dtlb += 1
                if w:
                    n_dtlb_st += 1
                if len(tlb) >= tlb_cap:
                    tlb.popitem(last=False)
                tlb[page] = None
                penalty[c] += tlb_walk_eff
            # --- L1 fast path --------------------------------------------
            s1 = l1_sets[c][line & l1_masks[c]]
            st = s1.get(line)
            if st is not None:
                s1.move_to_end(line)
                if w:
                    if st == MODIFIED:
                        continue
                    if st == EXCLUSIVE:
                        s1[line] = MODIFIED
                        l2_objs[c].set_state(line, MODIFIED)
                        continue
                    # Shared: needs an RFO upgrade on the bus.
                    n_rfo_s += 1
                    penalty[c] += upgrade_shared(c, line, ev)
                elif lfb_window[c] and line == lfb_line[c]:
                    n_hit_lfb += 1
                    lfb_window[c] -= 1
                continue
            # --- L1 miss -------------------------------------------------
            n_l1_miss += 1
            penalty[c] += service_miss(c, line, w, ev, last_miss_line,
                                       prefetch_on)
            lfb_line[c] = line
            lfb_window[c] = 1

        state.decay_countdown = decay_countdown
        self._cur_addr = -1
        seg.n_dtlb += n_dtlb
        seg.n_dtlb_st += n_dtlb_st
        seg.n_l1_miss += n_l1_miss
        seg.n_hit_lfb += n_hit_lfb
        seg.n_rfo_s += n_rfo_s
        seg.n_writes += n_writes
        seg.n_reads += len(cores_l) - n_writes

    # ---------------------------------------------------------------- slow paths

    def _snoop(self, c: int, line: int, want_write: bool, ev: "_EventTallies") -> int:
        """Broadcast on the bus; adjust remote holders; return best holder state."""
        best = 0
        best_core = -1
        for o in range(self._nt):
            if o == c:
                continue
            l2o = self._l2[o]
            st = l2o.lookup(line)
            if st is None:
                continue
            if st > best:
                best = st
                best_core = o
            if want_write:
                l2o.remove(line)
                self._l1[o].remove(line)
                if st == MODIFIED:
                    ev.writebacks += 1
            else:
                if st == MODIFIED:
                    ev.writebacks += 1
                if st != SHARED:
                    l2o.set_state(line, SHARED)
                    if line in self._l1[o]:
                        self._l1[o].set_state(line, SHARED)
        if best == MODIFIED:
            ev.snoop_hitm += 1
            ev.hitm_socket_remote += int(
                self.spec.socket_of(best_core) != self.spec.socket_of(c)
            )
            period = self.hitm_sample_period
            if period:
                self._hitm_seen += 1
                if self._hitm_seen >= period:
                    self._hitm_seen = 0
                    self._hitm_samples.append(
                        (c, best_core, self._cur_addr, want_write)
                    )
        elif best == EXCLUSIVE:
            ev.snoop_hite += 1
        elif best == SHARED:
            ev.snoop_hit += 1
        self._last_responder = best_core
        return best

    def _contention(self, c: int, line: int) -> int:
        """Record core c as a contender on the line; return contender count."""
        mask = self._contenders.get(line, 0) | (1 << c)
        self._contenders[line] = mask
        return bin(mask).count("1")

    def _upgrade_shared(self, c: int, line: int, ev: "_EventTallies") -> float:
        """Write hit on a Shared line: RFO upgrade.  Returns stall cycles."""
        lat = self.latency
        self._snoop(c, line, True, ev)
        self._l1[c].set_state(line, MODIFIED)
        self._l2[c].set_state(line, MODIFIED)
        penalty = lat.contended(lat.rfo_upgrade, self._contention(c, line))
        ev.stall_store += penalty
        return lat.effective(penalty, True)

    def _service_miss(
        self,
        c: int,
        line: int,
        w: bool,
        ev: "_EventTallies",
        last_miss_line: List[int],
        prefetch_on: bool,
    ) -> float:
        """L1 miss path: L2 lookup, bus, L3, memory.  Returns stall cycles."""
        lat = self.latency
        l2c = self._l2[c]
        st = l2c.touch(line)
        if st is not None:
            # L2 hit.
            if w:
                if st == SHARED:
                    ev.l2_rfo_hit_s += 1
                    self._snoop(c, line, True, ev)
                    st = MODIFIED
                    l2c.set_state(line, MODIFIED)
                    penalty = lat.contended(lat.rfo_upgrade,
                                            self._contention(c, line))
                    ev.stall_store += penalty
                elif st == EXCLUSIVE:
                    st = MODIFIED
                    l2c.set_state(line, MODIFIED)
                    penalty = lat.l2_hit
                else:
                    penalty = lat.l2_hit
                ev.l2_rqsts_rfo_hit += 1
            else:
                ev.l2_ld_hit += 1
                penalty = lat.l2_hit
            self._fill_l1(c, line, st)
            if not w:
                ev.stall_load += penalty
            return lat.effective(penalty, w)

        # L2 miss: demand request leaves the core.
        ev.l2_demand_i += 1
        # The next-line streamer only helps on lines no other core holds:
        # a prefetch that would hit remote data must take the coherent
        # demand path (installing E blindly would break MESI's single-owner
        # invariant and silently erase the false-sharing signature).
        prefetched = (
            prefetch_on
            and not w
            and line == last_miss_line[c] + 1
            and not self._any_remote_holder(c, line)
        )
        last_miss_line[c] = line
        if prefetched:
            # The streamer already pulled this line in: charge an L2 hit,
            # no offcore demand traffic, no snoop.
            ev.prefetch_hits += 1
            ev.l2_fill += 1
            ev.l2_lines_in_e += 1
            self._install(c, line, EXCLUSIVE, ev)
            ev.stall_load += lat.l2_hit
            return lat.effective(lat.l2_hit, False)

        if w:
            ev.l2_rqsts_rfo_miss += 1
            ev.offcore_rfo += 1
        else:
            ev.l2_ld_miss += 1
            ev.offcore_rd += 1

        best = self._snoop(c, line, w, ev)
        if best == MODIFIED:
            same = (
                self.spec.socket_of(self._last_responder)
                == self.spec.socket_of(c)
            )
            penalty = lat.contended(lat.hitm(same),
                                    self._contention(c, line))
            # Dirty data also lands in L3 on the way through the uncore.
            self._l3.insert(line, SHARED)
        elif best:
            penalty = lat.snoop_clean
        else:
            if self._l3.touch(line) is not None:
                ev.l3_hit += 1
                penalty = lat.l3_hit
            else:
                ev.l3_miss += 1
                penalty = lat.memory
                self._l3.insert(line, SHARED)

        new_state = MODIFIED if w else (SHARED if best else EXCLUSIVE)
        ev.l2_fill += 1
        if new_state == SHARED:
            ev.l2_lines_in_s += 1
        elif new_state == EXCLUSIVE:
            ev.l2_lines_in_e += 1
        self._install(c, line, new_state, ev)
        if w:
            ev.stall_store += penalty
        else:
            ev.stall_load += penalty
        return lat.effective(penalty, w)

    def _any_remote_holder(self, c: int, line: int) -> bool:
        """True when any other core caches the line (no state changes)."""
        for o in range(self._nt):
            if o != c and self._l2[o].lookup(line) is not None:
                return True
        return False

    def _install(self, c: int, line: int, state: int, ev: "_EventTallies") -> None:
        """Fill both private levels, handling L2 eviction (back-invalidate)."""
        evicted = self._l2[c].insert(line, state)
        if evicted is not None:
            eline, est = evicted
            self._l1[c].remove(eline)
            if est == MODIFIED:
                ev.l2_lines_out_dirty += 1
                ev.writebacks += 1
                self._l3.insert(eline, SHARED)
            else:
                ev.l2_lines_out_clean += 1
        self._fill_l1(c, line, state)

    def _fill_l1(self, c: int, line: int, state: int) -> None:
        # L1 eviction needs no bookkeeping: the line stays in L2 (inclusive).
        self._l1[c].insert(line, state)


class _RunState:
    """Per-core microarchitectural state that persists across slices."""

    __slots__ = ("tlbs", "tlb_cap", "last_miss_line", "lfb_line",
                 "lfb_window", "decay_countdown", "penalty")

    def __init__(self, nt: int, tlb_entries: int) -> None:
        self.tlbs = [OrderedDict() for _ in range(nt)]
        self.tlb_cap = tlb_entries
        self.last_miss_line = [-(10 ** 9)] * nt
        self.lfb_line = [-1] * nt
        self.lfb_window = [0] * nt
        self.decay_countdown = _CONTENTION_EPOCH
        self.penalty = [0.0] * nt  # total; slices track their own deltas


class _SegmentTallies:
    """Counters accumulated while driving one trace segment."""

    __slots__ = ("ev", "penalty", "accesses", "n_dtlb", "n_dtlb_st",
                 "n_l1_miss", "n_hit_lfb", "n_rfo_s", "n_writes", "n_reads")

    def __init__(self, ev: "_EventTallies", nt: int) -> None:
        self.ev = ev
        self.penalty = [0.0] * nt
        self.accesses = [0] * nt
        self.n_dtlb = 0
        self.n_dtlb_st = 0
        self.n_l1_miss = 0
        self.n_hit_lfb = 0
        self.n_rfo_s = 0
        self.n_writes = 0
        self.n_reads = 0


class _EventTallies:
    """Mutable counter block for one run (kept out of the fast path's way)."""

    __slots__ = (
        "l2_demand_i", "l2_ld_miss", "l2_ld_hit", "l2_rfo_hit_s",
        "l2_rqsts_rfo_miss", "l2_rqsts_rfo_hit", "l2_fill",
        "l2_lines_in_s", "l2_lines_in_e",
        "l2_lines_out_clean", "l2_lines_out_dirty",
        "snoop_hit", "snoop_hite", "snoop_hitm", "hitm_socket_remote",
        "offcore_rd", "offcore_rfo", "l3_hit", "l3_miss",
        "stall_store", "stall_load", "writebacks", "prefetch_hits",
    )

    def __init__(self) -> None:
        for name in self.__slots__:
            setattr(self, name, 0)

    def as_dict(self) -> Dict[str, float]:
        return {
            "L2_DATA_RQSTS.DEMAND.I_STATE": float(self.l2_demand_i),
            "L2_RQSTS.LD_MISS": float(self.l2_ld_miss),
            "L2_RQSTS.LD_HIT": float(self.l2_ld_hit),
            "L2_RQSTS.RFO_MISS": float(self.l2_rqsts_rfo_miss),
            "L2_RQSTS.RFO_HIT": float(self.l2_rqsts_rfo_hit),
            "L2_TRANSACTIONS.FILL": float(self.l2_fill),
            "L2_LINES_IN.S_STATE": float(self.l2_lines_in_s),
            "L2_LINES_IN.E_STATE": float(self.l2_lines_in_e),
            "L2_LINES_IN.ANY": float(self.l2_lines_in_s + self.l2_lines_in_e),
            "L2_LINES_OUT.DEMAND_CLEAN": float(self.l2_lines_out_clean),
            "L2_LINES_OUT.DEMAND_DIRTY": float(self.l2_lines_out_dirty),
            "SNOOP_RESPONSE.HIT": float(self.snoop_hit),
            "SNOOP_RESPONSE.HITE": float(self.snoop_hite),
            "SNOOP_RESPONSE.HITM": float(self.snoop_hitm),
            "OFFCORE_REQUESTS.DEMAND.READ_DATA": float(self.offcore_rd),
            "OFFCORE_REQUESTS.DEMAND.RFO": float(self.offcore_rfo),
            "OFFCORE_REQUESTS.ANY": float(self.offcore_rd + self.offcore_rfo),
            "LONGEST_LAT_CACHE.REFERENCE": float(self.l3_hit + self.l3_miss),
            "LONGEST_LAT_CACHE.MISS": float(self.l3_miss),
            "RESOURCE_STALLS.STORE": float(self.stall_store),
            "RESOURCE_STALLS.LOAD": float(self.stall_load),
            "RESOURCE_STALLS.ANY": float(self.stall_store + self.stall_load),
            "L2_WRITEBACKS": float(self.writebacks),
            "L1D_PREFETCH.REQUESTS": float(self.prefetch_hits),
            "MEM_UNCORE_RETIRED.OTHER_CORE_L2_HITM": float(self.snoop_hitm),
            "SNOOP_HITM_REMOTE_SOCKET": float(self.hitm_socket_remote),
        }


def _derive_counts(counts: Dict[str, float], ev: _EventTallies) -> Dict[str, float]:
    """Counters that are deterministic functions of others.

    These pad the candidate catalog with realistic events that carry no
    *extra* signal (branches, uops scale with instructions; walk cycles scale
    with TLB misses) — the event-selection pass must reject them, as the
    paper's did.
    """
    instr = counts["INST_RETIRED.ANY"]
    dtlb = counts["DTLB_MISSES.ANY"]
    return {
        "BR_INST_RETIRED.ALL_BRANCHES": instr * 0.18,
        "UOPS_RETIRED.ANY": instr * 1.32,
        "UOPS_ISSUED.ANY": instr * 1.41,
        "DTLB_MISSES.WALK_CYCLES": dtlb * 24.0,
        "DTLB_LOAD_MISSES.ANY": max(0.0, dtlb - counts["MEM_STORE_RETIRED.DTLB_MISS"]),
        "ITLB_MISSES.ANY": instr * 1e-6,
        "MEM_LOAD_RETIRED.L2_HIT": counts["L2_RQSTS.LD_HIT"],
        "MEM_LOAD_RETIRED.LLC_HIT": float(ev.l3_hit),
        "MEM_LOAD_RETIRED.LLC_MISS": float(ev.l3_miss),
        "SQ_MISC.FILL_DROPPED": counts["OFFCORE_REQUESTS.ANY"] * 0.002,
        "LOAD_DISPATCH.ANY": counts["MEM_INST_RETIRED.LOADS"] * 1.02,
        "FP_COMP_OPS_EXE.SSE_FP": instr * 0.21,
        "MACHINE_CLEARS.CYCLES": instr * 2e-6,
        "BR_MISP_RETIRED.ALL_BRANCHES": instr * 0.003,
        "ARITH.CYCLES_DIV_BUSY": instr * 0.001,
    }
