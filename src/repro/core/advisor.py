"""Diagnosis beyond the verdict: which lines, which threads, what fix.

The detector says *that* a run falsely shares; a developer needs to know
*where*.  This advisor pairs the classifier's verdict with the static
sharing analyzer's contended false-shared lines
(:meth:`~repro.analysis.sharing.SharingReport.false_shared` of the same
trace) — the threads fighting over each line and the byte spans each one
writes — and estimates the benefit of padding by replaying the trace with
those lines spread out (SHERIFF's mitigation idea [21], here as advice
instead of runtime patching).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.analysis.sharing import LineSharing, analyze_trace
from repro.core.detector import FalseSharingDetector
from repro.memory.layout import LINE_SIZE, line_of
from repro.pmu.events import TABLE2_EVENTS
from repro.trace.access import ProgramTrace, ThreadTrace
from repro.utils.tables import render_table

#: A diagnosis names (and pads) at most this many lines, hottest first.
TOP_LINES = 8


@dataclass
class Diagnosis:
    """Full advisory report for one run."""

    label: str
    seconds: float
    contended: List[LineSharing]
    padded_seconds: Optional[float] = None

    @property
    def estimated_speedup(self) -> Optional[float]:
        if self.padded_seconds is None or self.padded_seconds <= 0:
            return None
        return self.seconds / self.padded_seconds

    def render(self) -> str:
        lines = [f"verdict: {self.label}   simulated time: "
                 f"{self.seconds * 1e3:.3f} ms"]
        if self.label != "bad-fs":
            lines.append("no false sharing to fix.")
            return "\n".join(lines)
        if not self.contended:
            lines.append("the trace shows no contended false-shared line "
                         "behind this verdict; nothing to pad.")
            return "\n".join(lines)
        rows = [
            [f"0x{ls.address:x}", len(ls.writers), int(ls.total_writes),
             ", ".join(f"T{u.tid}:{int(u.writes)}"
                       for u in ls.uses if u.writes),
             "; ".join(f"T{t}:[{lo},{hi}]"
                       for t, (lo, hi) in sorted(ls.evidence().items()))]
            for ls in self.contended
        ]
        lines.append(render_table(
            ["line addr", "writer threads", "writes", "writes by thread",
             "written byte spans"],
            rows, title="Falsely shared cache lines (hottest first)",
        ))
        lines.append(
            "fix: give each thread's data its own cache line "
            "(pad structs to 64 bytes / use one line per thread slot)."
        )
        if self.estimated_speedup is not None:
            lines.append(
                f"estimated effect of padding: {self.seconds * 1e3:.3f} ms "
                f"-> {self.padded_seconds * 1e3:.3f} ms "
                f"({self.estimated_speedup:.1f}x)"
            )
        return "\n".join(lines)


def pad_trace(program: ProgramTrace,
              lines: Sequence[LineSharing]) -> ProgramTrace:
    """Replay layout: move each writer's accesses to each of ``lines`` onto
    a fresh private line (what a padding fix does to the address stream).

    Fresh lines start two lines above the highest address and are numbered
    in ``lines`` order, writers ascending within a line.
    """
    if not lines:
        return program
    base = max(int(t.addrs.max(initial=0)) for t in program.threads)
    fresh = int(line_of(base)) + 2
    moves: List[List[Tuple[int, int]]] = [[] for _ in program.threads]
    for ls in lines:
        for tid in ls.writers:
            moves[tid].append((ls.line, fresh))
            fresh += 1
    threads = []
    for t, pairs in zip(program.threads, moves):
        addrs = t.addrs.copy()
        old = line_of(t.addrs)
        for line, new in pairs:
            hit = old == line
            addrs[hit] = new * LINE_SIZE + (addrs[hit] & (LINE_SIZE - 1))
        threads.append(ThreadTrace(addrs, t.is_write.copy(),
                                   t.instr_per_access,
                                   t.extra_instructions))
    return ProgramTrace(threads, name=f"{program.name}+padded",
                        meta=dict(program.meta))


class FalseSharingAdvisor:
    """Names the contended lines behind a bad-fs verdict and sizes the fix."""

    def __init__(self, detector: FalseSharingDetector) -> None:
        self.detector = detector

    def diagnose_trace(self, program: ProgramTrace,
                       run_id: str = "") -> Diagnosis:
        lab = self.detector.lab
        machine = lab.machine
        res = machine.run(program, chunk=lab.chunk)
        vec = lab.sampler.measure(res, list(TABLE2_EVENTS), run_id=run_id)
        label = self.detector.classify_vector(vec)
        contended: List[LineSharing] = []
        padded_seconds = None
        if label == "bad-fs":
            contended = analyze_trace(program).false_shared()[:TOP_LINES]
            if contended:
                fixed = pad_trace(program, contended)
                padded_seconds = machine.run(fixed, chunk=lab.chunk).seconds
        return Diagnosis(
            label=label,
            seconds=res.seconds,
            contended=contended,
            padded_seconds=padded_seconds,
        )

    def diagnose(self, workload, cfg) -> Diagnosis:
        return self.diagnose_trace(workload.trace(cfg), run_id=cfg.run_id())
