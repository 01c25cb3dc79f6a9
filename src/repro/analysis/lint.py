"""Rule engine over static sharing facts: a false-sharing *lint*.

Each rule turns :class:`~repro.analysis.sharing.SharingReport` facts into
structured :class:`Finding`s a developer can act on:

* **FS001** — a contended false-shared line (the bug itself), with a
  padding fix sized in private lines: one per (line, writer) pair, the
  layout :func:`repro.core.advisor.pad_trace` replays;
* **FS002** — adjacent-line near-miss: two threads' write regions abut a
  line boundary closely enough that a small layout change (one more field,
  a different allocator) would fuse them onto one line — the kind of
  latent bug SHERIFF's per-thread page twinning defuses at runtime;
* **FS003** — cache-hostile stride: a thread re-fetches lines it let go
  cold over an uncacheable footprint (the bad-ma signature);
* **FS004** — unpadded per-thread struct: the writers' byte spans on a
  false-shared line form slot-sized per-thread ranges, the classic
  ``struct { ... } per_thread[NTHREADS]`` layout Figure 1 warns about.

Four further rules are *layout-aware*: they run over a report computed
from a symbolic access plan (no trace needed) and speak in object names:

* **FS005** — incidental adjacency: hot fields of *unrelated* per-thread
  objects collide on one contended line (not one packed slot array — that
  is FS006's shape);
* **FS006** — allocator co-location: a per-thread slot/struct group whose
  member pitch is smaller than a cache line, so several threads' private
  data shares lines by construction;
* **FS007** — interleaved partition: a shared written array whose
  thread-partition interleaves *within* cache lines (element-cyclic
  ownership — pmatmult's bad-fs shape);
* **FS008** — under-aligned base: a written object whose base address is
  not line-aligned straddles into a neighbouring object's line.

Findings carry the colliding object names and a stable ``fingerprint`` so
a committed baseline can suppress known findings and CI can fail only on
new ones.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.analysis.sharing import (
    NEAR_MISS_MARGIN,
    SIGNIFICANCE_THRESHOLD,
    SharingReport,
    analyze_trace,
)
from repro.memory.layout import LINE_SIZE
from repro.trace.access import ProgramTrace
from repro.utils.tables import render_table
from repro.workloads.plan import AccessPlan

#: FS001 escalates from warning to error at this significance.
ERROR_SIGNIFICANCE = 1e-2

#: FS004: a written span at most this wide reads as one struct slot.
SLOT_SPAN = 16


@dataclass
class Finding:
    """One lint finding (rule hit) with its evidence and suggested fix."""

    rule: str
    severity: str  # "error" | "warning" | "info"
    message: str
    lines: List[int] = field(default_factory=list)
    threads: List[int] = field(default_factory=list)
    suggestion: str = ""
    data: Dict[str, object] = field(default_factory=dict)
    #: Named objects/fields implicated (symbolizer output), if known.
    objects: List[str] = field(default_factory=list)
    #: Identity of the analyzed configuration (workload/mode/threads);
    #: part of the fingerprint so baselines distinguish configurations.
    scope: str = ""

    @property
    def fingerprint(self) -> str:
        """Stable short id for baselining: same rule + scope + evidence
        location ⇒ same fingerprint across runs and releases."""
        basis = "|".join((
            self.rule,
            self.scope,
            ",".join(sorted(self.objects)),
            ",".join(str(int(x)) for x in self.lines),
            ",".join(str(int(t)) for t in self.threads),
        ))
        return hashlib.sha256(basis.encode("utf-8")).hexdigest()[:12]

    def to_dict(self) -> Dict[str, object]:
        return {
            "rule": self.rule,
            "severity": self.severity,
            "message": self.message,
            "lines": [int(x) for x in self.lines],
            "threads": [int(t) for t in self.threads],
            "suggestion": self.suggestion,
            "data": self.data,
            "objects": list(self.objects),
            "scope": self.scope,
            "fingerprint": self.fingerprint,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "Finding":
        return cls(
            rule=str(payload["rule"]),
            severity=str(payload["severity"]),
            message=str(payload.get("message", "")),
            lines=[int(x) for x in payload.get("lines", [])],  # type: ignore[union-attr]
            threads=[int(t) for t in payload.get("threads", [])],  # type: ignore[union-attr]
            suggestion=str(payload.get("suggestion", "")),
            data=dict(payload.get("data", {})),  # type: ignore[arg-type]
            objects=[str(o) for o in payload.get("objects", [])],  # type: ignore[union-attr]
            scope=str(payload.get("scope", "")),
        )

    def render(self) -> str:
        where = ", ".join(f"0x{x * LINE_SIZE:x}" for x in self.lines)
        out = f"{self.rule} [{self.severity}] {where}: {self.message}"
        if self.objects:
            out += f"\n      objects: {', '.join(self.objects)}"
        if self.suggestion:
            out += f"\n      fix: {self.suggestion}"
        out += f"\n      id: {self.fingerprint}"
        return out


class SharingLinter:
    """Runs every FS rule over a trace (or a precomputed report)."""

    RULES = ("FS001", "FS002", "FS003", "FS004",
             "FS005", "FS006", "FS007", "FS008")

    def lint(self, program: ProgramTrace,
             report: Optional[SharingReport] = None,
             symbols=None, scope: str = "") -> List[Finding]:
        report = report or analyze_trace(program)
        findings: List[Finding] = []
        findings += self._fs001(report)
        findings += self._fs002(report)
        findings += self._fs003(report)
        findings += self._fs004(report)
        if symbols is not None or scope:
            for f in findings:
                f.scope = scope
                if symbols is not None and f.lines:
                    names = set()
                    for line in f.lines:
                        names.update(s.name
                                     for s in symbols.line_owners(line))
                    f.objects = sorted(names)
        return _ranked(findings)

    def lint_prediction(self, pred: SharingReport) -> List[Finding]:
        """Layout-aware rules (FS005-FS008) over a plan-backed report.

        These never see a trace: everything is derived from the access
        plan's symbol table and the predicted per-line classification, so
        every finding names the objects involved.
        """
        plan = pred.plan
        if plan is None:
            raise ValueError("layout rules need a plan-backed report")
        findings: List[Finding] = []
        findings += self._fs005(pred, plan)
        findings += self._fs006(pred, plan)
        findings += self._fs007(pred, plan)
        findings += self._fs008(pred, plan)
        scope = plan.scope()
        for f in findings:
            f.scope = scope
        return _ranked(findings)

    # ------------------------------------------------------------- FS001

    @staticmethod
    def _fs001(report: SharingReport) -> List[Finding]:
        hot = report.false_shared(min_significance=SIGNIFICANCE_THRESHOLD)
        # Padding moves each (line, writer) pair to a fresh private line.
        extra_lines = sum(len(ls.writers) for ls in hot)
        out = []
        for ls in hot:
            sev = ("error" if ls.significance >= ERROR_SIGNIFICANCE
                   else "warning")
            spans = "; ".join(
                f"T{t} writes bytes [{lo},{hi}]"
                for t, (lo, hi) in sorted(ls.evidence().items())
            )
            out.append(Finding(
                rule="FS001",
                severity=sev,
                message=(f"false sharing: {len(ls.writers)} threads write "
                         f"disjoint ranges of this line ({spans}); "
                         f"significance {ls.significance:.2e}"),
                lines=[ls.line],
                threads=sorted(ls.threads),
                suggestion=(
                    "give each thread's data its own cache line — padding "
                    f"the {len(hot)} contended line(s) adds "
                    f"{extra_lines} private line(s) "
                    f"({extra_lines * LINE_SIZE} bytes)"
                ),
                data={"significance": ls.significance,
                      "evidence": {str(t): list(sp) for t, sp
                                   in ls.evidence().items()}},
            ))
        return out

    # ------------------------------------------------------------- FS002

    @staticmethod
    def _fs002(report: SharingReport) -> List[Finding]:
        return [
            Finding(
                rule="FS002",
                severity="info",
                message=(f"near miss: T{nm.tid_low} and T{nm.tid_high} "
                         "write adjacent lines with only "
                         f"{nm.slack_bytes} bytes of slack across the "
                         "boundary"),
                lines=[nm.line, nm.line + 1],
                threads=sorted({nm.tid_low, nm.tid_high}),
                suggestion=("keep line-aligned per-thread data at least "
                            f"{NEAR_MISS_MARGIN} bytes clear of line "
                            "boundaries"),
                data={"slack_bytes": nm.slack_bytes},
            )
            for nm in report.near_misses
        ]

    # ------------------------------------------------------------- FS003

    @staticmethod
    def _fs003(report: SharingReport) -> List[Finding]:
        out = []
        for p in report.profiles:
            if not p.hostile:
                continue
            out.append(Finding(
                rule="FS003",
                severity="warning",
                message=(f"cache-hostile stride: T{p.tid} re-fetches "
                         f"{100 * p.refetch_rate:.0f}% of its accesses "
                         f"over a {p.footprint_lines}-line footprint"),
                threads=[p.tid],
                suggestion=("visit memory in address order (or blocks "
                            "that fit the cache) instead of large strides "
                            "or random order"),
                data={"refetch_rate": p.refetch_rate,
                      "footprint_lines": p.footprint_lines},
            ))
        return out

    # ------------------------------------------------------------- FS004

    @staticmethod
    def _fs004(report: SharingReport) -> List[Finding]:
        out = []
        for ls in report.false_shared(
                min_significance=SIGNIFICANCE_THRESHOLD):
            spans = ls.evidence()
            if len(spans) < 2:
                continue
            widths = [hi - lo + 1 for lo, hi in spans.values()]
            if max(widths) > SLOT_SPAN:
                continue
            slot = max(widths)
            out.append(Finding(
                rule="FS004",
                severity="info",
                message=(f"unpadded per-thread struct: {len(spans)} "
                         f"threads own slot-sized (≤{slot} B) ranges "
                         "packed into one line"),
                lines=[ls.line],
                threads=sorted(spans),
                suggestion=(f"pad each per-thread slot from ~{slot} to "
                            f"{LINE_SIZE} bytes (one line per thread), or "
                            "use thread-local storage"),
                data={"slot_bytes": slot,
                      "spans": {str(t): list(sp)
                                for t, sp in spans.items()}},
            ))
        return out

    # ------------------------------------------------------------- FS005

    @staticmethod
    def _fs005(pred: SharingReport, plan: AccessPlan) -> List[Finding]:
        """Hot per-thread fields of *unrelated* objects colliding on one
        contended line — incidental adjacency, not a packed slot array."""
        out = []
        for pl in pred.false_shared():
            syms = plan.symbols.line_owners(pl.line)
            owned = [s for s in syms if s.tid is not None]
            families = {s.group or s.name for s in owned}
            if len(owned) < 2 or len(families) < 2:
                continue
            sev = ("error" if pl.significance >= ERROR_SIGNIFICANCE
                   else "warning")
            out.append(Finding(
                rule="FS005",
                severity=sev,
                message=(f"incidental adjacency: {len(families)} unrelated "
                         "per-thread objects collide on this contended "
                         f"line (significance {pl.significance:.2e})"),
                lines=[pl.line],
                threads=sorted(set(pl.threads)),
                suggestion=("separate "
                            + ", ".join(sorted(s.name for s in owned))
                            + f" onto their own {LINE_SIZE}-byte-aligned "
                            "lines (pad the earlier allocation up to a "
                            "full line)"),
                data={"significance": pl.significance,
                      "groups": sorted(families)},
                objects=sorted(s.name for s in syms),
            ))
        return out

    # ------------------------------------------------------------- FS006

    @staticmethod
    def _fs006(pred: SharingReport, plan: AccessPlan) -> List[Finding]:
        """A per-thread slot/struct group packed at a sub-line pitch."""
        groups: Dict[str, List] = {}
        for s in plan.symbols:
            if s.tid is not None and s.group:
                groups.setdefault(s.group, []).append(s)
        by_line = {pl.line: pl for pl in pred.shared}
        out = []
        for gname, members in sorted(groups.items()):
            tids = sorted({s.tid for s in members if s.tid is not None})
            if len(tids) < 2:
                continue
            members = sorted(members, key=lambda s: s.base)
            pitch = min(b.base - a.base
                        for a, b in zip(members, members[1:]))
            if pitch >= LINE_SIZE:
                continue
            shared_lines = sorted({
                line
                for line in range(members[0].first_line,
                                  members[-1].last_line + 1)
                if sum(1 for s in members if s.overlaps_line(line)) >= 2
            })
            if not shared_lines:
                continue
            fs_lines = [by_line[x] for x in shared_lines
                        if x in by_line
                        and by_line[x].category == "false-shared"]
            sig = sum(pl.significance for pl in fs_lines if pl.contended)
            contended = any(pl.contended for pl in fs_lines)
            sev = ("error" if sig >= SIGNIFICANCE_THRESHOLD
                   else "warning" if contended else "info")
            out.append(Finding(
                rule="FS006",
                severity=sev,
                message=(f"allocator co-location: per-thread group "
                         f"'{gname}' packs {len(members)} thread slots at "
                         f"a {pitch}-byte pitch, so {len(shared_lines)} "
                         "cache line(s) hold several threads' private "
                         "data"),
                lines=shared_lines,
                threads=tids,
                suggestion=(f"pad the '{gname}' slot stride from {pitch} "
                            f"to {LINE_SIZE} bytes so each thread's slot "
                            "gets a private line"),
                data={"pitch": int(pitch), "members": len(members),
                      "significance": sig},
                objects=[s.name for s in members],
            ))
        return out

    # ------------------------------------------------------------- FS007

    @staticmethod
    def _fs007(pred: SharingReport, plan: AccessPlan) -> List[Finding]:
        """A shared written array whose thread partition interleaves
        inside cache lines (element-cyclic ownership)."""
        evid: Dict[str, List] = {}
        for pl in pred.shared:
            if pl.category != "false-shared":
                continue
            syms = plan.symbols.line_owners(pl.line)
            if len(syms) == 1 and syms[0].tid is None:
                evid.setdefault(syms[0].name, []).append(pl)
        out = []
        for name, pls in sorted(evid.items()):
            sym = plan.symbols[name]
            wuses = [u for u in plan.uses_of(name) if u.writes]
            tids = sorted({u.tid for u in wuses})
            if len(tids) < 2:
                continue
            step = max(u.step for u in wuses)
            if step <= 1:
                continue  # block partition: a boundary effect, not FS007
            epl = max(1, LINE_SIZE // sym.effective_stride)
            if epl <= 1:
                continue
            sig = sum(pl.significance for pl in pls if pl.contended)
            sev = ("error" if sig >= SIGNIFICANCE_THRESHOLD
                   else "warning")
            out.append(Finding(
                rule="FS007",
                severity=sev,
                message=(f"interleaved partition: '{name}' is written by "
                         f"{len(tids)} threads in an element-cyclic split "
                         f"(step {step}) with {epl} elements per line — "
                         f"{len(pls)} line(s) predicted false-shared"),
                lines=[pl.line for pl in pls[:8]],
                threads=tids,
                suggestion=(f"partition '{name}' into contiguous "
                            "per-thread blocks of whole cache lines "
                            f"(multiples of {epl} elements) instead of "
                            "interleaving elements"),
                data={"step": int(step), "elems_per_line": int(epl),
                      "fs_lines": len(pls), "significance": sig},
                objects=[name],
            ))
        return out

    # ------------------------------------------------------------- FS008

    @staticmethod
    def _fs008(pred: SharingReport, plan: AccessPlan) -> List[Finding]:
        """A written object whose base is not line-aligned, straddling
        into a line another object owns."""
        written = {u.symbol for u in plan.uses if u.writes}
        by_line = {pl.line: pl for pl in pred.shared}
        out = []
        for s in plan.symbols:
            if s.name not in written or s.size == 0:
                continue
            if s.base % LINE_SIZE == 0:
                continue
            cross = [
                o for o in plan.symbols.line_owners(s.first_line)
                if o.name != s.name
                and not (s.group and o.group == s.group)  # FS006's job
                and o.tid != s.tid
            ]
            if not cross:
                continue
            pl = by_line.get(s.first_line)
            contended = (pl is not None and pl.contended
                         and pl.category == "false-shared")
            aligned = (s.base // LINE_SIZE + 1) * LINE_SIZE
            out.append(Finding(
                rule="FS008",
                severity="warning" if contended else "info",
                message=(f"under-aligned base: '{s.name}' starts "
                         f"{s.base % LINE_SIZE} bytes into a line "
                         f"(0x{s.base:x}) and shares it with "
                         + ", ".join(o.name for o in cross)),
                lines=[s.first_line],
                threads=sorted({t for t in
                                [s.tid] + [o.tid for o in cross]
                                if t is not None}),
                suggestion=(f"align '{s.name}' to {LINE_SIZE} bytes "
                            f"(e.g. move its base from 0x{s.base:x} to "
                            f"0x{aligned:x})"),
                data={"base": int(s.base),
                      "misalignment": int(s.base % LINE_SIZE)},
                objects=sorted([s.name] + [o.name for o in cross]),
            ))
        return out


def _ranked(findings: List[Finding]) -> List[Finding]:
    rank = {"error": 0, "warning": 1, "info": 2}
    findings.sort(key=lambda f: (rank[f.severity], f.rule, f.lines))
    return findings


def render_findings(findings: List[Finding]) -> str:
    """Human-readable lint output (compiler-diagnostic style)."""
    if not findings:
        return "no findings — the layout and access order look clean."
    by_sev: Dict[str, int] = {}
    for f in findings:
        by_sev[f.severity] = by_sev.get(f.severity, 0) + 1
    head = ", ".join(f"{n} {sev}(s)" for sev, n in sorted(by_sev.items()))
    body = "\n".join(f.render() for f in findings)
    return f"{len(findings)} finding(s): {head}\n{body}"


def findings_table(findings: List[Finding]) -> str:
    rows = [
        [f.rule, f.severity,
         ", ".join(f"0x{x * LINE_SIZE:x}" for x in f.lines) or "-",
         ", ".join(f"T{t}" for t in f.threads) or "-",
         ", ".join(f.objects) or "-",
         f.fingerprint,
         f.message]
        for f in findings
    ]
    return render_table(
        ["rule", "severity", "lines", "threads", "objects", "id", "message"],
        rows, title="Lint findings", align_right=False)
