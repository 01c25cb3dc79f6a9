"""Cross-detector disagreement harness: predict × static × shadow × tree.

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
harness fans the full mini-program × mode × thread-count grid through all
four and reports the confusion structure: any systematic disagreement is
either a bug in one detector or a real blind spot worth knowing about
(e.g. the tree can only answer at whole-program granularity, the static
pass cannot see cache capacity, the predictive pass cannot see the real
interleaving).  Simulations are prefetched through
:class:`repro.parallel.ExecutionEngine`, oracle runs fan out over the same
pool, and the cheap symbolic passes run in the parent.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.analysis.sharing import (
    PredictiveAnalyzer,
    SharingReport,
    analyze_trace,
)
from repro.baselines.shadow import (
    FS_RATE_THRESHOLD,
    MAX_THREADS,
    ShadowMemoryDetector,
)
from repro.errors import WorkloadError
from repro.utils.tables import render_table
from repro.workloads.base import RunConfig, Workload
from repro.workloads.registry import mt_miniprograms, seq_miniprograms

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.detector import FalseSharingDetector
    from repro.parallel import ExecutionEngine

#: Thread counts the default grid sweeps (the oracle refuses more than 8).
DEFAULT_THREADS = (2, 6)


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


@dataclass
class CaseRecord:
    """All four verdicts for one grid case.

    ``predict_label`` is empty when the workload exposes no symbolic
    access plan; such records compare the remaining three detectors only.
    """

    workload: str
    mode: str
    threads: int
    size: int
    pattern: str
    static_label: str       # good | bad-fs | bad-ma (the tree's vocabulary)
    static_significance: float
    shadow_fs: bool
    shadow_rate: float
    tree_label: str
    predict_label: str = ""

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
    def case_id(self) -> str:
        return (f"{self.workload}[t{self.threads}-{self.mode}"
                f"-n{self.size}-{self.pattern}]")

    def to_dict(self) -> Dict[str, object]:
        return {
            "case": self.case_id,
            "workload": self.workload,
            "mode": self.mode,
            "threads": self.threads,
            "size": self.size,
            "pattern": self.pattern,
            "predict": self.predict_label or None,
            "static": self.static_label,
            "static_significance": self.static_significance,
            "shadow": "fs" if self.shadow_fs else "no-fs",
            "shadow_rate": self.shadow_rate,
            "tree": self.tree_label,
            "fs_agreement": self.unanimous_fs,
        }


@dataclass
class CrossCheckReport:
    """Confusion structure over the whole grid."""

    records: List[CaseRecord]

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
        planned = [r for r in self.records if r.predict_label]
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
        """Cases where the three false-sharing verdicts are not unanimous."""
        return [r for r in self.records if not r.unanimous_fs]

    def render(self) -> str:
        n_detectors = (4 if any(r.predict_label for r in self.records)
                       else 3)
        lines = [f"{len(self.records)} grid cases, "
                 f"{n_detectors} detectors"]
        conf = self.confusion_full()
        rows = [
            [p, s, sh, tr, n]
            for (p, s, sh, tr), n in sorted(conf.items())
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
        return "\n".join(lines)

    def to_json(self, indent: Optional[int] = None) -> str:
        payload = {
            "cases": [r.to_dict() for r in self.records],
            "confusion": [
                {"predict": p, "static": s, "shadow": sh, "tree": tr,
                 "count": n}
                for (p, s, sh, tr), n in
                sorted(self.confusion_full().items())
            ],
            "pairwise_fs_agreement": self.pairwise_fs_agreement(),
            "disagreements": [r.case_id for r in self.disagreements()],
        }
        return json.dumps(payload, indent=indent)


class CrossChecker:
    """Runs the three detectors over a case grid and collates verdicts."""

    def __init__(
        self,
        detector: "FalseSharingDetector",
        shadow: Optional[ShadowMemoryDetector] = None,
        engine: Optional["ExecutionEngine"] = None,
    ) -> None:
        self.detector = detector
        self.shadow = shadow or ShadowMemoryDetector()
        self.predictor = PredictiveAnalyzer()
        if engine is None:
            from repro.parallel import ExecutionEngine

            engine = ExecutionEngine()
        self.engine = engine

    def static_report(self, workload: Workload,
                      cfg: RunConfig) -> SharingReport:
        return analyze_trace(workload.trace(cfg))

    def predict_label(self, workload: Workload, cfg: RunConfig) -> str:
        """Symbolic verdict, or "" for plan-less workloads."""
        try:
            plan = workload.plan(cfg)
        except WorkloadError:
            return ""
        return self.predictor.analyze(plan).verdict

    def run(
        self, grid: Optional[Sequence[Tuple[Workload, RunConfig]]] = None
    ) -> CrossCheckReport:
        grid = list(grid) if grid is not None else default_grid()
        # The expensive axes fan out over the worker pool; the parent then
        # consumes cache hits (tree) and precomputed counts (oracle) in
        # grid order, so results are identical for any worker count.
        self.engine.prefetch_simulations(
            self.detector.lab, [(w, cfg) for w, cfg in grid]
        )
        counts = self.engine.shadow_batch(
            [(w.name, cfg) for w, cfg in grid],
            chunk=self.detector.lab.chunk,
            max_threads=self.shadow.max_threads,
            fast=self.shadow.fast,
        )
        records = []
        for (w, cfg), (fs, _ts, _cold, instr) in zip(grid, counts):
            static = self.static_report(w, cfg)
            tree = self.detector.classify(w, cfg).label
            rate = fs / instr if instr else 0.0
            records.append(CaseRecord(
                workload=w.name,
                mode=cfg.mode.value,
                threads=cfg.threads,
                size=cfg.size,
                pattern=cfg.pattern,
                static_label=static.verdict,
                static_significance=static.fs_significance,
                shadow_fs=rate > FS_RATE_THRESHOLD,
                shadow_rate=rate,
                tree_label=tree,
                predict_label=self.predict_label(w, cfg),
            ))
        self.detector.lab.flush()
        return CrossCheckReport(records)
