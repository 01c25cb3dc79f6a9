"""``repro.telemetry`` — zero-dependency observability for the pipeline.

Off by default.  Spans (context-manager + decorator), counters and gauges
live in :mod:`repro.telemetry.core`; per-run provenance in
:mod:`repro.telemetry.manifest`; JSON / Chrome-trace serialization in
:mod:`repro.telemetry.export`; the ``repro-bench`` replay in
:mod:`repro.telemetry.bench` (it only measures — ``repro-results gate``
judges its payloads).

Quickstart::

    from repro import telemetry

    tel = telemetry.enable()          # process-wide collector
    ...                               # run instrumented pipeline code
    telemetry.export_chrome_trace(tel, "trace.json")
    telemetry.RunManifest.collect(telemetry=tel).save("manifest.json")
"""

from repro.telemetry.core import (
    TELEMETRY,
    SpanRecord,
    Telemetry,
    disable,
    enable,
    get_telemetry,
)
from repro.telemetry.export import (
    export_chrome_trace,
    export_json,
    spans_from_json,
)
from repro.telemetry.manifest import (
    RunManifest,
    git_branch,
    git_revision,
    host_fingerprint,
)

__all__ = [
    "TELEMETRY",
    "Telemetry",
    "SpanRecord",
    "enable",
    "disable",
    "get_telemetry",
    "export_json",
    "export_chrome_trace",
    "spans_from_json",
    "RunManifest",
    "git_revision",
    "git_branch",
    "host_fingerprint",
]
