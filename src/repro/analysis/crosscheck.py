"""Cross-detector harness: predict × static × shadow × tree, verdicts and lines.

Four independent detectors now exist for the same question — *does this
run falsely share?* — with four different epistemologies:

* the **predictive analyzer** (this package) forecasts from the symbolic
  access plan alone — no trace is even generated;
* the **static analyzer** (this package) decides from the trace's layout
  and timing structure alone, no simulation;
* the **shadow oracle** ([33]) replays every access through word-granular
  shadow state — dynamic ground truth on the interleaved execution;
* the **trained tree** (the paper's method) sees only normalized PMU
  counts from the simulated machine.

Following the validate-against-independent-ground-truth discipline, this
harness fans a case grid — the mini-program × mode × thread-count grid, or
the 19-program suite at its canonical cases — through all four and keeps
one :class:`CaseRecord` per case with both views of it:

* the **verdicts**, whose confusion structure shows any systematic
  disagreement: either a bug in one detector or a real blind spot (the
  tree answers at whole-program granularity, the static pass cannot see
  cache capacity, the predictive pass cannot see the real interleaving);
* the **lines**: the predicted contended false-shared lines against the
  oracle's per-line false-sharing miss attribution, scored as line-level
  precision/recall.  Every line-level disagreement is *explained*, not
  just counted: a predicted line the oracle never saw miss is usually a
  hand-off or a below-floor trickle; an oracle line the prediction missed
  is usually classified true-shared by word granularity.  Unexplained
  disagreements are either prediction bugs or genuine limits of the
  symbolic model (documented in DESIGN.md).

Simulations are prefetched through :class:`repro.parallel.ExecutionEngine`,
oracle reports (with per-line attribution) come from the pipeline
context's oracle cache, whose misses fan out over the same pool, and the
cheap symbolic passes run in the parent.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.analysis.sharing import (
    SIGNIFICANCE_THRESHOLD,
    PredictiveAnalyzer,
    SharingReport,
    analyze_trace,
)
from repro.baselines.shadow import FS_RATE_THRESHOLD, MAX_THREADS, ShadowReport
from repro.errors import WorkloadError
from repro.suites import all_programs
from repro.suites.base import SuiteCase, SuiteProgram
from repro.utils.tables import render_table
from repro.workloads.base import RunConfig, Workload
from repro.workloads.registry import mt_miniprograms, seq_miniprograms

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.context import PipelineContext

#: Thread counts the default grid sweeps (the oracle refuses more than 8).
DEFAULT_THREADS = (2, 6)

#: A line needs at least this many oracle fs misses to count as ground
#: truth: interleaving at chunk seams can produce a stray miss or two on
#: lines whose steady-state behaviour is a clean hand-off.
MIN_ORACLE_MISSES = 3


def default_grid(
    threads: Sequence[int] = DEFAULT_THREADS,
    pattern: str = "random",
) -> List[Tuple[Workload, RunConfig]]:
    """Mini-program × mode × thread-count grid, one case per combination.

    Sequential programs contribute their good/bad-ma pair at one thread;
    multi-threaded programs sweep every supported mode at each requested
    thread count.  Sizes are each workload's first training size.
    """
    for t in threads:
        if not 1 <= t <= MAX_THREADS:
            raise ValueError(
                f"grid thread counts must be in [1, {MAX_THREADS}], got {t}"
            )
    grid: List[Tuple[Workload, RunConfig]] = []
    for w in mt_miniprograms():
        for mode in sorted(w.modes, key=lambda m: m.value):
            for t in threads:
                grid.append((w, RunConfig(
                    threads=t, mode=mode, size=w.train_sizes[0],
                    pattern=pattern,
                )))
    for w in seq_miniprograms():
        for mode in sorted(w.modes, key=lambda m: m.value):
            grid.append((w, RunConfig(
                threads=1, mode=mode, size=w.train_sizes[0],
                pattern=pattern,
            )))
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


def _case_label(cfg) -> str:
    """The bracketed part of a case id: a grid case's identity."""
    if isinstance(cfg, SuiteCase):
        return f"{cfg.input_set}{cfg.opt}-t{cfg.threads}"
    return f"t{cfg.threads}-{cfg.mode.value}-n{cfg.size}-{cfg.pattern}"


@dataclass
class CaseRecord:
    """All four verdicts and both line sets for one grid case.

    ``predict_label`` is empty when the workload exposes no symbolic
    access plan; such records compare the remaining three detectors only
    and take no part in the line-level figures.
    """

    workload: str
    case: str               # _case_label(cfg)
    static_label: str       # good | bad-fs | bad-ma (the tree's vocabulary)
    static_significance: float
    shadow_fs: bool
    shadow_rate: float
    tree_label: str
    predict_label: str = ""
    predicted_lines: List[int] = field(default_factory=list)
    oracle_lines: List[int] = field(default_factory=list)
    explanations: List[str] = field(default_factory=list)
    unexplained: List[str] = field(default_factory=list)

    @property
    def static_fs(self) -> bool:
        return self.static_label == "bad-fs"

    @property
    def tree_fs(self) -> bool:
        return self.tree_label == "bad-fs"

    @property
    def predict_fs(self) -> bool:
        return self.predict_label == "bad-fs"

    @property
    def unanimous_fs(self) -> bool:
        """All participating detectors give the same fs verdict."""
        flags = [self.static_fs, self.shadow_fs, self.tree_fs]
        if self.predict_label:
            flags.append(self.predict_fs)
        return len(set(flags)) == 1

    @property
    def predict_agrees(self) -> bool:
        """The predicted fs verdict matches the oracle's."""
        return self.predict_fs == self.shadow_fs

    @property
    def unambiguous(self) -> bool:
        """The two trace-grounded detectors concur, so the ground truth
        is clear and the prediction has no excuse."""
        return self.static_fs == self.shadow_fs

    @property
    def matched(self) -> List[int]:
        truth = set(self.oracle_lines)
        return [x for x in self.predicted_lines if x in truth]

    @property
    def predicted_only(self) -> List[int]:
        truth = set(self.oracle_lines)
        return [x for x in self.predicted_lines if x not in truth]

    @property
    def oracle_only(self) -> List[int]:
        pred = set(self.predicted_lines)
        return [x for x in self.oracle_lines if x not in pred]

    @property
    def precision(self) -> float:
        n = len(self.predicted_lines)
        return len(self.matched) / n if n else 1.0

    @property
    def recall(self) -> float:
        n = len(self.oracle_lines)
        return len(self.matched) / n if n else 1.0

    @property
    def case_id(self) -> str:
        return f"{self.workload}[{self.case}]"

    def to_dict(self) -> Dict[str, object]:
        return {
            "case": self.case_id,
            "workload": self.workload,
            "predict": self.predict_label or None,
            "static": self.static_label,
            "static_significance": self.static_significance,
            "shadow": "fs" if self.shadow_fs else "no-fs",
            "shadow_rate": self.shadow_rate,
            "tree": self.tree_label,
            "fs_agreement": self.unanimous_fs,
            "lines": {
                "predicted": len(self.predicted_lines),
                "oracle": len(self.oracle_lines),
                "matched": len(self.matched),
                "predicted_only": self.predicted_only,
                "oracle_only": self.oracle_only,
            },
            "precision": self.precision,
            "recall": self.recall,
            "explanations": list(self.explanations),
            "unexplained": list(self.unexplained),
        }


@dataclass
class CrossCheckReport:
    """Verdict confusion and line-level accuracy over a whole grid."""

    records: List[CaseRecord]

    @property
    def planned(self) -> List[CaseRecord]:
        """Records with a prediction (a symbolic plan)."""
        return [r for r in self.records if r.predict_label]

    # ------------------------------------------------------------ verdicts

    def confusion(self) -> Dict[Tuple[str, str, str], int]:
        """Counts per (static, shadow, tree) verdict triple."""
        out: Dict[Tuple[str, str, str], int] = {}
        for r in self.records:
            key = (r.static_label, "fs" if r.shadow_fs else "no-fs",
                   r.tree_label)
            out[key] = out.get(key, 0) + 1
        return out

    def confusion_full(self) -> Dict[Tuple[str, str, str, str], int]:
        """Counts per (predict, static, shadow, tree) verdict quadruple.

        ``predict`` is ``"-"`` for records without a symbolic plan.
        """
        out: Dict[Tuple[str, str, str, str], int] = {}
        for r in self.records:
            key = (r.predict_label or "-", r.static_label,
                   "fs" if r.shadow_fs else "no-fs", r.tree_label)
            out[key] = out.get(key, 0) + 1
        return out

    def pairwise_fs_agreement(self) -> Dict[str, float]:
        """Fraction of cases where each detector pair agrees on fs/no-fs."""
        n = len(self.records)
        if n == 0:
            return {}
        out = {
            "static-vs-shadow": sum(r.static_fs == r.shadow_fs
                                    for r in self.records) / n,
            "tree-vs-shadow": sum(r.tree_fs == r.shadow_fs
                                  for r in self.records) / n,
            "static-vs-tree": sum(r.static_fs == r.tree_fs
                                  for r in self.records) / n,
        }
        planned = self.planned
        if planned:
            m = len(planned)
            out["predict-vs-shadow"] = sum(r.predict_fs == r.shadow_fs
                                           for r in planned) / m
            out["predict-vs-static"] = sum(r.predict_fs == r.static_fs
                                           for r in planned) / m
            out["predict-vs-tree"] = sum(r.predict_fs == r.tree_fs
                                         for r in planned) / m
        return out

    def disagreements(self) -> List[CaseRecord]:
        """Cases where the false-sharing verdicts are not unanimous."""
        return [r for r in self.records if not r.unanimous_fs]

    # --------------------------------------------------------------- lines

    @property
    def line_precision(self) -> float:
        """Micro-averaged: matched over predicted lines, all cases."""
        pred = sum(len(r.predicted_lines) for r in self.records)
        return (sum(len(r.matched) for r in self.records) / pred
                if pred else 1.0)

    @property
    def line_recall(self) -> float:
        """Micro-averaged: matched over oracle lines, all cases."""
        truth = sum(len(r.oracle_lines) for r in self.records)
        return (sum(len(r.matched) for r in self.records) / truth
                if truth else 1.0)

    @property
    def verdict_agreement(self) -> float:
        """Fraction of planned cases where predict and static agree."""
        planned = self.planned
        if not planned:
            return 1.0
        return (sum(r.predict_label == r.static_label for r in planned)
                / len(planned))

    def unambiguous_agreement(self) -> Tuple[int, int]:
        """(# agreeing, # total) predict-vs-oracle over planned cases
        with clear ground truth."""
        clear = [r for r in self.planned if r.unambiguous]
        return sum(r.predict_agrees for r in clear), len(clear)

    def all_explained(self) -> bool:
        return not any(r.unexplained for r in self.records)

    # -------------------------------------------------------------- output

    def render(self) -> str:
        n_detectors = 4 if self.planned else 3
        lines = [f"{len(self.records)} grid cases, "
                 f"{n_detectors} detectors"]
        rows = [
            [p, s, sh, tr, n]
            for (p, s, sh, tr), n in sorted(self.confusion_full().items())
        ]
        lines.append(render_table(
            ["predict", "static", "shadow", "tree", "cases"], rows,
            title="Verdict confusion matrix "
                  "(predict × static × shadow × tree)",
        ))
        agree = self.pairwise_fs_agreement()
        lines.append("false-sharing agreement: " + "   ".join(
            f"{k}: {100 * v:.1f}%" for k, v in agree.items()
        ))
        dis = self.disagreements()
        if dis:
            rows = [
                [r.case_id, r.predict_label or "-", r.static_label,
                 "fs" if r.shadow_fs else "no-fs", r.tree_label,
                 f"{r.static_significance:.1e}", f"{r.shadow_rate:.1e}"]
                for r in dis
            ]
            lines.append(render_table(
                ["case", "predict", "static", "shadow", "tree",
                 "static sig", "shadow rate"],
                rows, title="Disagreements (false-sharing axis)",
            ))
        else:
            lines.append("no disagreements: all detectors concur on "
                         "every case.")
        if not self.planned:
            return "\n".join(lines)
        ok, clear = self.unambiguous_agreement()
        lines.append(
            f"predicted lines vs oracle lines: precision "
            f"{100 * self.line_precision:.1f}%, recall "
            f"{100 * self.line_recall:.1f}%   verdict agreement (predict "
            f"vs static): {100 * self.verdict_agreement:.1f}%   "
            f"unambiguous fs agreement (predict vs oracle): {ok}/{clear}")
        rows = [
            [r.case_id, len(r.predicted_lines), len(r.oracle_lines),
             len(r.matched), f"{100 * r.precision:.0f}%",
             f"{100 * r.recall:.0f}%"]
            for r in self.records if r.predicted_only or r.oracle_only
        ]
        if rows:
            lines.append(render_table(
                ["case", "predicted", "oracle", "matched", "precision",
                 "recall"], rows, title="Line-level disagreements"))
        notes = [e for r in self.records for e in r.explanations]
        if notes:
            lines.append("explained disagreements:")
            lines.extend(f"  - {n}" for n in notes)
        bad = [u for r in self.records for u in r.unexplained]
        if bad:
            lines.append("UNEXPLAINED disagreements:")
            lines.extend(f"  ! {u}" for u in bad)
        else:
            lines.append("every line-level disagreement is explained.")
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, object]:
        agree, total = self.unambiguous_agreement()
        return {
            "cases": [r.to_dict() for r in self.records],
            "confusion": [
                {"predict": p, "static": s, "shadow": sh, "tree": tr,
                 "count": n}
                for (p, s, sh, tr), n in
                sorted(self.confusion_full().items())
            ],
            "pairwise_fs_agreement": self.pairwise_fs_agreement(),
            "disagreements": [r.case_id for r in self.disagreements()],
            "n_cases": len(self.records),
            "line_precision": self.line_precision,
            "line_recall": self.line_recall,
            "verdict_agreement": self.verdict_agreement,
            "unambiguous_agreement": {"agree": agree, "total": total},
            "all_disagreements_explained": self.all_explained(),
        }

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), indent=indent)


def _explain(rec: CaseRecord, pred: SharingReport,
             per_line: Dict[int, tuple]) -> None:
    """Attach a reason to each of ``rec``'s line-level disagreements
    (or file it as unexplained)."""
    by_line = {pl.line: pl for pl in pred.shared}
    where = rec.case_id
    for line in rec.predicted_only:
        fs = per_line.get(line, (0, 0))[0]
        pl = by_line[line]
        if fs > 0:
            rec.explanations.append(
                f"{where} 0x{line * 64:x}: predicted contended; oracle saw "
                f"only {fs} fs miss(es), below the {MIN_ORACLE_MISSES}-miss "
                "ground-truth floor")
        elif pl.significance < SIGNIFICANCE_THRESHOLD:
            rec.explanations.append(
                f"{where} 0x{line * 64:x}: predicted contention is "
                f"insignificant ({pl.significance:.1e}) and the "
                "interleaving realized it as a clean hand-off")
        else:
            rec.unexplained.append(
                f"{where} 0x{line * 64:x}: predicted significant "
                "contention, oracle saw none")
    for line in rec.oracle_only:
        pl = by_line.get(line)
        fs = per_line.get(line, (0, 0))[0]
        if pl is None:
            rec.unexplained.append(
                f"{where} 0x{line * 64:x}: oracle saw {fs} fs miss(es) on "
                "a line the plan never shares")
        elif pl.category == "true-shared":
            rec.explanations.append(
                f"{where} 0x{line * 64:x}: predicted true-shared (word "
                f"overlap), oracle attributes {fs} miss(es) as fs — "
                "word-granularity judgement call on a line with both kinds "
                "of traffic")
        elif pl.category == "false-shared" and not pl.contended:
            rec.explanations.append(
                f"{where} 0x{line * 64:x}: predicted an uncontended "
                f"hand-off, oracle saw {fs} fs miss(es) — position-window "
                "model was too optimistic here")
        else:
            rec.unexplained.append(
                f"{where} 0x{line * 64:x}: oracle saw {fs} fs miss(es), "
                f"prediction called it {pl.category}")


class CrossChecker:
    """Runs the four detectors over a case grid and collates both views.

    A grid is a list of ``(target, config)`` pairs: registry workloads
    with :class:`RunConfig` (:func:`default_grid`) or suite programs with
    :class:`SuiteCase` (:func:`suite_grid`).  ``ctx`` is a
    :class:`~repro.experiments.context.PipelineContext`, or anything with
    its ``detector``, ``engine``, ``shadow``, ``shadow_cache`` and
    ``shadow_reports``: the oracle's reports come from its cache, so a
    case any earlier run shadowed (the suite's verification grid, another
    sweep) is not shadowed again.
    """

    def __init__(self, ctx: "PipelineContext") -> None:
        self.ctx = ctx
        self.predictor = PredictiveAnalyzer()

    def run(self, grid: Optional[Sequence[Tuple]] = None) -> CrossCheckReport:
        grid = list(grid) if grid is not None else default_grid()
        detector = self.ctx.detector
        # The expensive axes run first, one case task per grid pair (its
        # trace built once for the simulator and the oracle); the parent
        # then consumes cache hits (tree and oracle) in grid order, so
        # results are identical for any worker count.
        self.ctx.engine.prefetch(detector.lab, grid, shadowed=grid,
                                 shadow_cache=self.ctx.shadow_cache,
                                 oracle=self.ctx.shadow)
        records = [self._record(w, cfg, oracle) for (w, cfg), oracle
                   in zip(grid, self.ctx.shadow_reports(grid))]
        detector.lab.flush()
        return CrossCheckReport(records)

    def _record(self, w, cfg, oracle: ShadowReport) -> CaseRecord:
        static = analyze_trace(w.trace(cfg))
        rate = (oracle.fs_misses / oracle.instructions
                if oracle.instructions else 0.0)
        try:
            pred: Optional[SharingReport] = self.predictor.analyze(
                w.plan(cfg))
        except WorkloadError:
            pred = None
        rec = CaseRecord(
            workload=w.name,
            case=_case_label(cfg),
            static_label=static.verdict,
            static_significance=static.fs_significance,
            shadow_fs=rate > FS_RATE_THRESHOLD,
            shadow_rate=rate,
            tree_label=self.ctx.detector.classify(w, cfg).label,
        )
        if pred is not None:
            rec.predict_label = pred.verdict
            rec.predicted_lines = sorted(pl.line
                                         for pl in pred.false_shared())
            rec.oracle_lines = sorted(line for line, (fs, _ts)
                                      in oracle.per_line.items()
                                      if fs >= MIN_ORACLE_MISSES)
            _explain(rec, pred, oracle.per_line)
        return rec
