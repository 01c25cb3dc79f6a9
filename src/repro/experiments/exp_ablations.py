"""Ablations the paper motivates but does not tabulate.

* classifier choice (Section 3: "after experimenting with several
  classifiers ... we selected J48");
* number of events (Section 6 future work: "how the effectiveness depends
  on the number and types of performance events");
* the contribution of the sequential Part B ("this indeed improved the
  classification accuracy", Section 2.2.2).
"""

from __future__ import annotations

from typing import Dict, List


from repro.experiments.base import ExperimentResult, experiment
from repro.experiments.context import PipelineContext
from repro.ml.baselines_ml import KNN, GaussianNB, OneR, ZeroR
from repro.ml.c45 import C45Classifier
from repro.ml.validation import cross_validate, holdout_score
from repro.utils.tables import render_table


@experiment("ablation_classifiers", "Classifier comparison (why J48)")
def ablation_classifiers(ctx: PipelineContext) -> ExperimentResult:
    data = ctx.training.dataset
    contenders = [
        ("J48 (C4.5)", C45Classifier),
        ("J48 unpruned", lambda: C45Classifier(prune=False)),
        ("kNN (k=5)", KNN),
        ("NaiveBayes", GaussianNB),
        ("OneR", OneR),
        ("ZeroR", ZeroR),
    ]
    rows = []
    accs: Dict[str, float] = {}
    for label, factory in contenders:
        cm = cross_validate(factory, data, k=10)
        accs[label] = cm.accuracy
        rows.append([label, f"{100 * cm.accuracy:.2f}%",
                     f"{cm.correct}/{cm.total}"])
    text = render_table(["Classifier", "10-fold CV accuracy", "correct"],
                        rows, title="Classifier comparison on the training set")
    best = max(accs, key=accs.get)
    text += f"\nbest: {best}"
    return ExperimentResult(
        exp_id="ablation_classifiers",
        title="Classifier comparison",
        text=text,
        data={"accuracies": accs, "best": best},
        paper="Section 3: J48 produced the best classification results "
              "among the classifiers tried.",
    )


@experiment("ablation_events", "Accuracy vs number of events")
def ablation_events(ctx: PipelineContext) -> ExperimentResult:
    data = ctx.training.dataset
    # Rank features by how much the full tree relies on them, then by
    # univariate usefulness (single-feature stump accuracy).
    tree_order = ctx.detector.tree_events()
    remaining = [n for n in data.feature_names if n not in tree_order]

    def stump_acc(name: str) -> float:
        sub = data.select_features([name])
        return cross_validate(lambda: C45Classifier(max_depth=2), sub,
                              k=5).accuracy

    remaining.sort(key=stump_acc, reverse=True)
    order = tree_order + remaining
    rows = []
    accs: List[float] = []
    ks = [1, 2, 3, 4, 6, 8, 11, 15]
    for k in ks:
        names = order[:k]
        sub = data.select_features(names)
        cm = cross_validate(C45Classifier, sub, k=10)
        accs.append(cm.accuracy)
        rows.append([k, f"{100 * cm.accuracy:.2f}%",
                     ", ".join(names[:4]) + ("..." if k > 4 else "")])
    text = render_table(["# events", "CV accuracy", "events (first 4)"],
                        rows, title="Accuracy as events are added "
                                    "(tree-used events first)")
    from repro.utils.charts import sparkline

    text += f"\naccuracy trend ({ks[0]}..{ks[-1]} events): " + sparkline(accs)
    return ExperimentResult(
        exp_id="ablation_events",
        title="Events ablation",
        text=text,
        data={"ks": ks, "accuracies": accs, "order": order},
        paper="Section 6 lists the event-count dependence as future work; "
              "Figure 2 shows 4 events carry the decision.",
    )


@experiment("ablation_partb", "Value of the sequential training set")
def ablation_partb(ctx: PipelineContext) -> ExperimentResult:
    td = ctx.training
    full_cm = cross_validate(C45Classifier, td.dataset, k=10)
    a_cm = cross_validate(C45Classifier, td.dataset_a, k=10)
    # Train on Part A alone, test on Part B: does the classifier generalize
    # to sequential bad-ma it never saw?
    hold = holdout_score(C45Classifier, td.dataset_a, td.dataset_b)
    rows = [
        ["A+B, 10-fold CV", f"{100 * full_cm.accuracy:.2f}%"],
        ["A only, 10-fold CV", f"{100 * a_cm.accuracy:.2f}%"],
        ["train A, test B", f"{100 * hold.accuracy:.2f}%"],
    ]
    text = render_table(["Protocol", "Accuracy"], rows,
                        title="Contribution of the sequential Part B")
    badma_recall = hold.per_class().get("bad-ma", {}).get("recall", 0.0)
    text += (f"\nbad-ma recall when trained on A only: "
             f"{100 * badma_recall:.1f}% — Part B exists to fix exactly this")
    return ExperimentResult(
        exp_id="ablation_partb",
        title="Part B ablation",
        text=text,
        data={
            "full_cv": full_cm.accuracy,
            "a_only_cv": a_cm.accuracy,
            "a_to_b": hold.accuracy,
            "a_to_b_badma_recall": badma_recall,
        },
        paper="Section 2.2.2: adding the sequential set 'indeed improved the "
              "classification accuracy'.",
    )


@experiment("ablation_noise", "Sensitivity to measurement noise")
def ablation_noise(ctx: PipelineContext) -> ExperimentResult:
    from repro.core.lab import Lab
    from repro.core.training import collect_training_data

    quiet = Lab(noisy=False, disk_cache=None)
    quiet.sim_cache = ctx.lab.sim_cache  # share the simulation cache
    td_quiet = collect_training_data(quiet)
    cm_quiet = cross_validate(C45Classifier, td_quiet.dataset, k=10)
    cm_noisy = cross_validate(C45Classifier, ctx.training.dataset, k=10)
    rows = [
        ["noisy PMU (default)", f"{100 * cm_noisy.accuracy:.2f}%"],
        ["noiseless counters", f"{100 * cm_quiet.accuracy:.2f}%"],
    ]
    text = render_table(["Condition", "10-fold CV accuracy"], rows,
                        title="Effect of counter noise and multiplexing")
    return ExperimentResult(
        exp_id="ablation_noise",
        title="Noise ablation",
        text=text,
        data={"noisy": cm_noisy.accuracy, "quiet": cm_quiet.accuracy},
        paper="Section 2.3 warns L1D counters are noisy; the method must "
              "tolerate counter noise to be practical.",
    )


@experiment("ablation_chunk", "Sensitivity to interleave granularity")
def ablation_chunk(ctx: PipelineContext) -> ExperimentResult:
    """The simulator interleaves threads in chunks of consecutive accesses.

    Chunk size is the one free parameter of the trace-driven substrate: it
    controls how often contended lines change hands.  The false-sharing
    signature must be robust to it — HITM rates shift by small factors, but
    the good/bad-fs gap stays orders of magnitude wide.
    """
    from repro.core.lab import Lab
    from repro.workloads.base import Mode, RunConfig
    from repro.workloads.registry import get_workload

    pdot = get_workload("pdot")
    cfg_good = RunConfig(threads=6, mode=Mode.GOOD, size=98_304)
    cfg_bad = RunConfig(threads=6, mode=Mode.BAD_FS, size=98_304)
    rows = []
    gaps = {}
    for chunk in (1, 2, 4, 8, 16):
        lab = Lab(chunk=chunk, disk_cache=ctx.lab.disk_cache)
        good = lab.simulate(pdot, cfg_good).normalized("SNOOP_RESPONSE.HITM")
        bad = lab.simulate(pdot, cfg_bad).normalized("SNOOP_RESPONSE.HITM")
        lab.flush()
        gap = bad / max(good, 1e-12)
        gaps[chunk] = gap
        rows.append([chunk, f"{good:.2e}", f"{bad:.2e}", f"{gap:.0f}x"])
    text = render_table(
        ["chunk", "good HITM/instr", "bad-fs HITM/instr", "gap"],
        rows, title="pdot false-sharing signature vs interleave granularity",
    )
    return ExperimentResult(
        exp_id="ablation_chunk",
        title="Interleave-granularity ablation",
        text=text,
        data={"gaps": gaps},
        paper="(design-choice ablation; the paper's hardware interleaves "
              "continuously)",
    )
