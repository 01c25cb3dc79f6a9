"""The public face of the paper's method: train once, classify any program.

:class:`FalseSharingDetector` wraps the J48 tree with the measurement
conventions (Table 2 events, normalization) so a caller can hand it either a
raw :class:`EventVector` from any source or a workload + configuration to
run on the lab.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.parallel import ExecutionEngine

from repro.core.lab import Lab
from repro.core.training import (
    FEATURE_NAMES,
    FEATURES,
    TrainingData,
    collect_training_data,
)
from repro.errors import NotFittedError
from repro.ml.c45 import C45Classifier
from repro.ml.dataset import Dataset
from repro.ml.validation import ConfusionMatrix, cross_validate
from repro.pmu.counters import EventVector
from repro.pmu.events import TABLE2_EVENTS
from repro.utils.stats import majority, tally
from repro.workloads.base import Mode, RunConfig, Workload


@dataclass
class CaseResult:
    """Classification of one program run (one cell of Tables 6/8)."""

    label: str
    seconds: float
    meta: Dict[str, object] = field(default_factory=dict)


class FalseSharingDetector:
    """Trainable detector: Table 2 events + a C4.5 tree.

    Typical use::

        lab = Lab()
        det = FalseSharingDetector(lab).fit()
        label = det.classify(workload, RunConfig(threads=6, mode="good"))
    """

    def __init__(
        self,
        lab: Optional[Lab] = None,
        make_classifier: Callable[[], C45Classifier] = C45Classifier,
    ) -> None:
        self.lab = lab or Lab()
        self.make_classifier = make_classifier
        self.classifier: Optional[C45Classifier] = None
        self.training: Optional[TrainingData] = None

    # ------------------------------------------------------------------ fit

    def fit(
        self,
        dataset: Optional[Dataset] = None,
        training: Optional[TrainingData] = None,
        jobs: Optional[int] = None,
    ) -> "FalseSharingDetector":
        """Train on an explicit dataset, a TrainingData, or collect afresh.

        ``jobs`` parallelizes a fresh collection's simulations (ignored when
        a dataset or training set is supplied)."""
        if dataset is None:
            if training is None:
                training = collect_training_data(self.lab, jobs=jobs)
            self.training = training
            dataset = training.dataset
        self.classifier = self.make_classifier()
        self.classifier.fit(dataset)
        return self

    def _require_fitted(self) -> C45Classifier:
        if self.classifier is None:
            raise NotFittedError("detector has not been fitted")
        return self.classifier

    def cross_validate(self, k: int = 10, seed: int = 0) -> ConfusionMatrix:
        """Stratified k-fold CV on the training data (paper Table 4)."""
        if self.training is None:
            raise NotFittedError("detector was fitted without training data")
        return cross_validate(self.make_classifier, self.training.dataset,
                              k=k, seed=seed)

    # ------------------------------------------------------------- classify

    def classify_vector(self, vector: EventVector) -> str:
        """Classify one measurement (any source that provides Table 2 counts)."""
        clf = self._require_fitted()
        return clf.predict_one(vector.features(FEATURES))

    def classify_features(self, features: np.ndarray) -> str:
        """Classify a pre-normalized 15-event feature vector."""
        return self._require_fitted().predict_one(np.asarray(features))

    def classify(self, workload: Workload, cfg: RunConfig) -> CaseResult:
        """Run a workload on the lab, measure, classify."""
        vec = self.lab.measure(workload, cfg, TABLE2_EVENTS)
        return CaseResult(
            label=self.classify_vector(vec),
            seconds=float(vec.meta.get("seconds", 0.0)),
            meta=dict(vec.meta),
        )

    def classify_cases(
        self,
        workload: Workload,
        cases: Sequence[RunConfig],
        jobs: Optional[int] = None,
        engine: Optional["ExecutionEngine"] = None,
    ) -> List[CaseResult]:
        """Classify a grid of cases, optionally simulating them in parallel.

        Workers only simulate; measurement and classification run serially
        in case order here, so the results are identical for any ``jobs``.
        """
        if engine is None and jobs is not None:
            from repro.parallel import ExecutionEngine

            engine = ExecutionEngine(jobs)
        if engine is not None:
            engine.prefetch(self.lab, [(workload, cfg) for cfg in cases])
        return [self.classify(workload, cfg) for cfg in cases]

    def overall_label(self, case_labels: Sequence[str]) -> str:
        """The paper's program-level verdict: majority over all cases."""
        return majority(case_labels)

    def label_tally(self, case_labels: Sequence[str]) -> Dict[str, int]:
        return tally(case_labels)

    # ------------------------------------------------------------ reporting

    def save(self, path) -> None:
        """Persist the trained tree as JSON (train once, classify anywhere)."""
        from repro.ml.persistence import save_classifier

        save_classifier(self._require_fitted(), path)

    def load(self, path) -> "FalseSharingDetector":
        """Load a tree saved with :meth:`save` (no training data attached)."""
        from repro.ml.persistence import load_classifier

        self.classifier = load_classifier(path)
        self.training = None
        return self

    def render_tree(self) -> str:
        """Weka-style text rendering of the learned tree (paper Figure 2)."""
        return self._require_fitted().render()

    def tree_events(self) -> List[str]:
        """Names of the events the pruned tree actually tests."""
        return self._require_fitted().used_feature_names()

    def tree_event_numbers(self) -> List[int]:
        """Paper-style 1-based Table 2 indices of the tested events."""
        return [FEATURE_NAMES.index(n) + 1 for n in self.tree_events()]


def detects_false_sharing(label: str) -> bool:
    """True when a classification label means false sharing is present."""
    return label == Mode.BAD_FS.value
