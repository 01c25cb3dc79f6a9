"""Cross-detector disagreement experiments (beyond-paper validation).

The paper validates its tree against one independent oracle (shadow
memory, Table 10).  With the static sharing analyzer and the symbolic
predictive analyzer there are now four detectors with disjoint failure
modes; these experiments fan case grids through all of them and publish
the confusion structure, so any drift between the plan-level,
layout-level, execution-level and PMU-level views of false sharing shows
up in EXPERIMENTS.md instead of going unnoticed.
"""

from __future__ import annotations

from repro.analysis.crosscheck import CrossChecker, default_grid, suite_grid
from repro.experiments.base import ExperimentResult, experiment
from repro.experiments.context import PipelineContext


def _checker(ctx: PipelineContext) -> CrossChecker:
    return CrossChecker(ctx.detector, shadow=ctx.shadow, engine=ctx.engine)


@experiment("crosscheck",
            "Predict × static × shadow × tree disagreement matrix")
def crosscheck(ctx: PipelineContext) -> ExperimentResult:
    report = _checker(ctx).run(default_grid())
    return ExperimentResult(
        exp_id="crosscheck",
        title="Predict × static × shadow × tree disagreement matrix",
        text=report.render(),
        # The "report" tag makes this document self-describing so the
        # durable run store (repro.results) can classify and ingest it.
        data={"report": "crosscheck", **report.to_dict()},
        paper="beyond the paper: the SC'13 pipeline validates the tree "
              "against the shadow oracle only (Table 10); the static "
              "analyzer and the trace-free predictive analyzer add a "
              "third and fourth independent vote.",
    )


@experiment("predict-validation",
            "Predicted false-shared lines vs shadow-oracle attribution")
def predict_validation(ctx: PipelineContext) -> ExperimentResult:
    checker = _checker(ctx)
    registry = checker.run(default_grid(threads=(4,)))
    suite = checker.run(suite_grid())
    text = ("— registry sweep —\n" + registry.render()
            + "\n\n— benchmark suite (canonical cases) —\n"
            + suite.render())
    return ExperimentResult(
        exp_id="predict-validation",
        title="Predicted false-shared lines vs shadow-oracle attribution",
        text=text,
        # Tagged for the durable run store, like the crosscheck payload:
        # registry/suite accuracy summaries trend across commits.
        data={"report": "predict-validation",
              "registry": registry.to_dict(),
              "suite": suite.to_dict()},
        paper="beyond the paper: line-level precision/recall of the "
              "symbolic predictor against [33]'s per-line false-sharing "
              "miss attribution, over the mini-program registry and the "
              "19-program suite.",
    )
