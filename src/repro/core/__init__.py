"""The paper's methodology: event selection, training, the detector."""

from repro.core.advisor import Diagnosis, FalseSharingAdvisor
from repro.core.detector import CaseResult, FalseSharingDetector, detects_false_sharing
from repro.core.event_selection import (
    MIN_RATIO,
    SELECTION_THREADS,
    SelectionResult,
    select_events,
)
from repro.core.lab import Lab
from repro.core.slicing import SlicedDetector, SlicedDiagnosis, SliceVerdict, phased_program
from repro.core.training import (
    FEATURE_NAMES,
    FEATURES,
    PART_A_PLAN,
    PART_B_PLAN,
    PlanRow,
    ScreeningReport,
    TrainingData,
    collect_plan,
    collect_training_data,
    make_part_a_plan,
    plan_counts,
    screen_instances,
)

__all__ = [
    "Diagnosis",
    "FalseSharingAdvisor",
    "SlicedDetector",
    "SlicedDiagnosis",
    "SliceVerdict",
    "phased_program",
    "CaseResult",
    "FalseSharingDetector",
    "detects_false_sharing",
    "MIN_RATIO",
    "SELECTION_THREADS",
    "SelectionResult",
    "select_events",
    "Lab",
    "FEATURE_NAMES",
    "FEATURES",
    "PART_A_PLAN",
    "PART_B_PLAN",
    "PlanRow",
    "ScreeningReport",
    "TrainingData",
    "collect_plan",
    "collect_training_data",
    "make_part_a_plan",
    "plan_counts",
    "screen_instances",
]
