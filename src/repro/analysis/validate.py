"""Prediction validation: symbolic line forecasts vs trace ground truth.

The predictive analyzer claims it can classify false sharing from a
workload's :class:`~repro.workloads.plan.AccessPlan` alone.  This harness
makes that claim falsifiable, case by case:

* generate the *real* trace and run the shadow oracle ([33]) with per-line
  tracking — its ``per_line`` false-sharing miss attribution is the ground
  truth a prediction must hit;
* run the trace-based static analyzer for the middle opinion (same verdict
  vocabulary as the prediction, but computed from the materialized trace);
* compare the predicted contended false-shared lines against the oracle's
  fs-miss lines and report line-level precision/recall, plus verdict
  agreement on the program level.

Every line-level disagreement is *explained*, not just counted: a
predicted line the oracle never saw miss is usually a hand-off or a
below-floor trickle; an oracle line the prediction missed is usually
classified true-shared by word granularity.  Unexplained disagreements
are the interesting output — they are either prediction bugs or genuine
limits of the symbolic model (documented in DESIGN.md).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.sharing import (
    SIGNIFICANCE_THRESHOLD,
    PredictiveAnalyzer,
    SharingReport,
    StaticSharingAnalyzer,
)
from repro.baselines.shadow import MAX_THREADS, ShadowMemoryDetector
from repro.suites import all_programs
from repro.suites.base import SuiteCase, SuiteProgram
from repro.utils.tables import render_table
from repro.workloads.base import RunConfig, Workload
from repro.workloads.registry import all_workloads

#: A line needs at least this many oracle fs misses to count as ground
#: truth: interleaving at chunk seams can produce a stray miss or two on
#: lines whose steady-state behaviour is a clean hand-off.
MIN_ORACLE_MISSES = 3

#: Default thread count for multi-threaded registry sweeps.
DEFAULT_THREADS = 4


def registry_grid(threads: int = DEFAULT_THREADS,
                  pattern: str = "random") -> List[Tuple[Workload, RunConfig]]:
    """Every registry workload at every mode, one canonical config each."""
    grid = []
    for w in all_workloads():
        t = threads if w.kind == "mt" else 1
        for mode in sorted(w.modes, key=lambda m: m.value):
            grid.append((w, RunConfig(threads=t, mode=mode,
                                      size=w.train_sizes[0],
                                      pattern=pattern)))
    return grid


def canonical_case(program: SuiteProgram) -> SuiteCase:
    """One verification-eligible case per suite program.

    First input, lowest optimization level (accumulators not registerized,
    so layout bugs are visible), largest thread count the 8-thread oracle
    accepts.
    """
    threads = max((t for t in program.threads if t <= MAX_THREADS),
                  default=min(program.threads))
    return SuiteCase(program.inputs[0], program.opts[0], threads)


def suite_grid() -> List[Tuple[SuiteProgram, SuiteCase]]:
    """The full 19-program suite at each program's canonical case."""
    return [(p, canonical_case(p)) for p in all_programs()]


@dataclass
class CaseValidation:
    """Line-level and verdict-level comparison for one case."""

    scope: str
    predict_verdict: str
    static_verdict: str
    shadow_fs: bool
    shadow_rate: float
    predicted_lines: List[int]
    oracle_lines: List[int]
    matched: List[int] = field(default_factory=list)
    predicted_only: List[int] = field(default_factory=list)
    oracle_only: List[int] = field(default_factory=list)
    explanations: List[str] = field(default_factory=list)
    unexplained: List[str] = field(default_factory=list)

    @property
    def precision(self) -> float:
        n = len(self.predicted_lines)
        return len(self.matched) / n if n else 1.0

    @property
    def recall(self) -> float:
        n = len(self.oracle_lines)
        return len(self.matched) / n if n else 1.0

    @property
    def fs_agreement(self) -> bool:
        """Predicted program-level fs verdict matches the oracle's."""
        return (self.predict_verdict == "bad-fs") == self.shadow_fs

    @property
    def unambiguous(self) -> bool:
        """The two trace-grounded detectors concur, so the ground truth
        is clear and the prediction has no excuse."""
        return (self.static_verdict == "bad-fs") == self.shadow_fs

    def to_dict(self) -> Dict[str, object]:
        return {
            "scope": self.scope,
            "predict": self.predict_verdict,
            "static": self.static_verdict,
            "shadow": "fs" if self.shadow_fs else "no-fs",
            "shadow_rate": self.shadow_rate,
            "lines": {
                "predicted": len(self.predicted_lines),
                "oracle": len(self.oracle_lines),
                "matched": len(self.matched),
                "predicted_only": self.predicted_only,
                "oracle_only": self.oracle_only,
            },
            "precision": self.precision,
            "recall": self.recall,
            "fs_agreement": self.fs_agreement,
            "unambiguous": self.unambiguous,
            "explanations": list(self.explanations),
            "unexplained": list(self.unexplained),
        }


@dataclass
class ValidationReport:
    """Aggregate of per-case validations."""

    cases: List[CaseValidation]

    @property
    def micro_precision(self) -> float:
        tp = sum(len(c.matched) for c in self.cases)
        pred = sum(len(c.predicted_lines) for c in self.cases)
        return tp / pred if pred else 1.0

    @property
    def micro_recall(self) -> float:
        tp = sum(len(c.matched) for c in self.cases)
        truth = sum(len(c.oracle_lines) for c in self.cases)
        return tp / truth if truth else 1.0

    @property
    def verdict_agreement(self) -> float:
        if not self.cases:
            return 1.0
        return (sum(c.predict_verdict == c.static_verdict
                    for c in self.cases) / len(self.cases))

    def unambiguous_agreement(self) -> Tuple[int, int]:
        """(# agreeing, # total) over cases with clear ground truth."""
        clear = [c for c in self.cases if c.unambiguous]
        return sum(c.fs_agreement for c in clear), len(clear)

    def disagreements(self) -> List[CaseValidation]:
        return [c for c in self.cases
                if c.predicted_only or c.oracle_only
                or not c.fs_agreement]

    def all_explained(self) -> bool:
        return not any(c.unexplained for c in self.cases)

    def to_dict(self) -> Dict[str, object]:
        agree, total = self.unambiguous_agreement()
        return {
            "n_cases": len(self.cases),
            "line_precision": self.micro_precision,
            "line_recall": self.micro_recall,
            "verdict_agreement": self.verdict_agreement,
            "unambiguous_agreement": {"agree": agree, "total": total},
            "all_disagreements_explained": self.all_explained(),
            "cases": [c.to_dict() for c in self.cases],
        }

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    def render(self) -> str:
        agree, total = self.unambiguous_agreement()
        out = [
            f"{len(self.cases)} case(s) validated — line-level precision "
            f"{100 * self.micro_precision:.1f}%, recall "
            f"{100 * self.micro_recall:.1f}%",
            f"verdict agreement (predict vs static): "
            f"{100 * self.verdict_agreement:.1f}%   "
            f"unambiguous fs agreement (predict vs oracle): "
            f"{agree}/{total}",
        ]
        rows = []
        for c in self.cases:
            rows.append([
                c.scope, c.predict_verdict, c.static_verdict,
                "fs" if c.shadow_fs else "no-fs",
                f"{100 * c.precision:.0f}%",
                f"{100 * c.recall:.0f}%",
                len(c.predicted_only) + len(c.oracle_only),
            ])
        out.append(render_table(
            ["case", "predict", "static", "oracle", "precision",
             "recall", "line diffs"],
            rows, title="Predictive validation"))
        notes = [e for c in self.cases for e in c.explanations]
        if notes:
            out.append("explained disagreements:")
            out.extend(f"  - {n}" for n in notes)
        bad = [u for c in self.cases for u in c.unexplained]
        if bad:
            out.append("UNEXPLAINED disagreements:")
            out.extend(f"  ! {u}" for u in bad)
        else:
            out.append("every line-level disagreement is explained.")
        return "\n".join(out)


class PredictionValidator:
    """Runs predict × static × shadow per case and collates the gaps."""

    def __init__(self, min_oracle_misses: int = MIN_ORACLE_MISSES) -> None:
        self.predictor = PredictiveAnalyzer()
        self.analyzer = StaticSharingAnalyzer()
        self.shadow = ShadowMemoryDetector(track_lines=True)
        self.min_oracle_misses = min_oracle_misses

    # ------------------------------------------------------------- one case

    def validate_case(self, plan, trace) -> CaseValidation:
        pred = self.predictor.analyze(plan)
        static = self.analyzer.analyze(trace)
        oracle = self.shadow.run(trace)
        per_line = oracle.per_line or {}
        predicted = sorted(pl.line for pl in pred.false_shared())
        truth = sorted(line for line, (fs, _ts) in per_line.items()
                       if fs >= self.min_oracle_misses)
        cv = CaseValidation(
            scope=plan.scope(),
            predict_verdict=pred.verdict,
            static_verdict=static.verdict,
            shadow_fs=oracle.has_false_sharing,
            shadow_rate=oracle.fs_rate,
            predicted_lines=predicted,
            oracle_lines=truth,
        )
        tset = set(truth)
        cv.matched = sorted(x for x in predicted if x in tset)
        cv.predicted_only = sorted(x for x in predicted if x not in tset)
        cv.oracle_only = sorted(x for x in tset if x not in set(predicted))
        self._explain(cv, pred, per_line)
        return cv

    def _explain(self, cv: CaseValidation, pred: SharingReport,
                 per_line: Dict[int, tuple]) -> None:
        by_line = {pl.line: pl for pl in pred.shared}
        for line in cv.predicted_only:
            fs = per_line.get(line, (0, 0))[0]
            pl = by_line[line]
            if fs > 0:
                cv.explanations.append(
                    f"{cv.scope} 0x{line * 64:x}: predicted contended; "
                    f"oracle saw only {fs} fs miss(es), below the "
                    f"{self.min_oracle_misses}-miss ground-truth floor")
            elif pl.significance < SIGNIFICANCE_THRESHOLD:
                cv.explanations.append(
                    f"{cv.scope} 0x{line * 64:x}: predicted contention is "
                    f"insignificant ({pl.significance:.1e}) and the "
                    "interleaving realized it as a clean hand-off")
            else:
                cv.unexplained.append(
                    f"{cv.scope} 0x{line * 64:x}: predicted significant "
                    "contention, oracle saw none")
        for line in cv.oracle_only:
            pl = by_line.get(line)
            fs = per_line.get(line, (0, 0))[0]
            if pl is None:
                cv.unexplained.append(
                    f"{cv.scope} 0x{line * 64:x}: oracle saw {fs} fs "
                    "miss(es) on a line the plan never shares")
            elif pl.category == "true-shared":
                cv.explanations.append(
                    f"{cv.scope} 0x{line * 64:x}: predicted true-shared "
                    f"(word overlap), oracle attributes {fs} miss(es) as "
                    "fs — word-granularity judgement call on a line with "
                    "both kinds of traffic")
            elif pl.category == "false-shared" and not pl.contended:
                cv.explanations.append(
                    f"{cv.scope} 0x{line * 64:x}: predicted an "
                    f"uncontended hand-off, oracle saw {fs} fs miss(es) "
                    "— position-window model was too optimistic here")
            else:
                cv.unexplained.append(
                    f"{cv.scope} 0x{line * 64:x}: oracle saw {fs} fs "
                    f"miss(es), prediction called it {pl.category}")

    # ------------------------------------------------------------- sweeps

    def validate_registry(
        self, grid: Optional[Sequence[Tuple[Workload, RunConfig]]] = None,
    ) -> ValidationReport:
        grid = list(grid) if grid is not None else registry_grid()
        cases = [self.validate_case(w.plan(cfg), w.trace(cfg))
                 for w, cfg in grid]
        return ValidationReport(cases)

    def validate_suite(
        self, grid: Optional[Sequence[Tuple[SuiteProgram, SuiteCase]]] = None,
    ) -> ValidationReport:
        grid = list(grid) if grid is not None else suite_grid()
        cases = [self.validate_case(p.plan(case), p.trace(case))
                 for p, case in grid]
        return ValidationReport(cases)
