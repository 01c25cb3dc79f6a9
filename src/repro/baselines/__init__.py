"""Prior-work detectors: the shadow-memory oracle [33] and SHERIFF [21]."""

from repro.baselines.overhead import OverheadReport, overhead_report
from repro.baselines.shadow import (
    FS_RATE_THRESHOLD,
    MAX_THREADS,
    ShadowMemoryDetector,
    ShadowReport,
)
from repro.baselines.sheriff import (
    SIGNIFICANCE_THRESHOLD,
    SheriffDetector,
    SheriffReport,
)

__all__ = [
    "OverheadReport",
    "overhead_report",
    "FS_RATE_THRESHOLD",
    "MAX_THREADS",
    "ShadowMemoryDetector",
    "ShadowReport",
    "SIGNIFICANCE_THRESHOLD",
    "SheriffDetector",
    "SheriffReport",
]
