"""Static sharing analysis: simulation-free false-sharing verdicts.

The package's pieces form the third and fourth detection modalities next
to the dynamic shadow-memory oracle and the trained classifier:

* :mod:`repro.analysis.sharing` — one classifier core that labels every
  cache line private / read-shared / true-shared / false-shared, gates
  contention on overlapping position windows and scores significance,
  fed by two front-ends: :class:`StaticSharingAnalyzer` over a trace and
  :class:`PredictiveAnalyzer` over a symbolic
  :class:`~repro.workloads.plan.AccessPlan`, before any trace exists.
  Both return a :class:`SharingReport`;
* :mod:`repro.analysis.symbols` — interval-indexed map from address
  ranges to named workload objects (``objects_on_line`` / ``line_owners``);
* :mod:`repro.analysis.lint` — rule engine (FS001..FS008) turning sharing
  reports into actionable findings with padding suggestions, each
  carrying a stable fingerprint;
* :mod:`repro.analysis.baseline` — committed finding baselines so CI
  fails only on *new* findings;
* :mod:`repro.analysis.crosscheck` — one harness fanning a case grid
  (mini-programs or the suite's canonical cases) through both
  front-ends, the shadow oracle and the trained tree: verdict confusion
  plus line-level precision/recall of the plan front-end against the
  oracle's per-line attribution, with every disagreement explained.
"""

from repro.analysis.baseline import (
    BaselineDiff,
    diff_findings,
    load_baseline,
    save_baseline,
)
from repro.analysis.crosscheck import (
    CaseRecord,
    CrossChecker,
    CrossCheckReport,
    default_grid,
)
from repro.analysis.lint import Finding, SharingLinter
from repro.analysis.sharing import (
    SIGNIFICANCE_THRESHOLD,
    LineSharing,
    NearMiss,
    PredictiveAnalyzer,
    SharingReport,
    StaticSharingAnalyzer,
    ThreadLineUse,
    ThreadProfile,
    analyze_trace,
    predict_plan,
)
from repro.analysis.symbols import Symbol, SymbolTable

__all__ = [
    "BaselineDiff",
    "diff_findings",
    "load_baseline",
    "save_baseline",
    "CaseRecord",
    "CrossChecker",
    "CrossCheckReport",
    "default_grid",
    "Finding",
    "SharingLinter",
    "SIGNIFICANCE_THRESHOLD",
    "LineSharing",
    "NearMiss",
    "PredictiveAnalyzer",
    "SharingReport",
    "StaticSharingAnalyzer",
    "ThreadLineUse",
    "ThreadProfile",
    "analyze_trace",
    "predict_plan",
    "Symbol",
    "SymbolTable",
]
