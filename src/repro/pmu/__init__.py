"""PMU model: event catalog, counter vectors, sampling with noise."""

from repro.pmu.counters import (
    EventVector,
    feature_matrix,
    feature_names,
    merge_vectors,
    require_events,
)
from repro.pmu.events import (
    ALL_EVENTS,
    CANDIDATE_EVENTS,
    CLOCK_EVENT,
    NORMALIZER,
    TABLE2_EVENTS,
    Event,
    event_by_code,
    event_by_name,
    event_by_raw_key,
    event_number,
    feature_events,
)
from repro.pmu.sampler import PROGRAMMABLE_COUNTERS, PMUSampler

__all__ = [
    "EventVector",
    "feature_matrix",
    "feature_names",
    "merge_vectors",
    "require_events",
    "ALL_EVENTS",
    "CANDIDATE_EVENTS",
    "CLOCK_EVENT",
    "NORMALIZER",
    "TABLE2_EVENTS",
    "Event",
    "event_by_code",
    "event_by_name",
    "event_by_raw_key",
    "event_number",
    "feature_events",
    "PROGRAMMABLE_COUNTERS",
    "PMUSampler",
]
