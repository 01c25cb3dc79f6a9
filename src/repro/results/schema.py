"""Result-store schema: payload kinds, metric extraction, digests.

The durable run store (:mod:`repro.results.store`) is deliberately dumb —
append rows, never rewrite them.  All knowledge about *what* a payload is
and *which numbers inside it are worth trending* lives here, so adding a
new artifact kind is one classifier branch plus one extractor, with the
SQLite layout untouched.

Recognized payload kinds (each a JSON document some part of the repo
already emits — the store ingests them as-is, no new wire format):

* ``bench`` — ``repro-bench`` / ``BENCH_simulator.json``: per-trace drive
  throughput + speedups (with their hard ``speedup_floor``), routing
  coverage (with the routing floor), optional e2e wall time.  The payload
  shape is checked at ingest (:data:`KNOWN_SECTIONS`, a non-empty
  ``drive`` table whose rows all carry a positive throughput), so a
  drifted document never enters any history;
* ``serve`` — ``repro-serve bench`` / ``BENCH_serve.json``: loadgen
  throughput, latency percentiles, shed/error counts (hard ceiling 0),
  offline batch-inference throughput; when the document embeds a
  ``scale`` section (the sharded fleet run) its throughput, per-line
  latency percentiles, shed/error ceilings and host provenance
  (cpus/workers) are trended too;
* ``serve-scale`` — a standalone sharded-fleet scale payload (a
  ``scale`` section without the single-server ``loadgen`` run): the
  same scale metrics, with the shed ceiling carried as a hard bound;
* ``manifest`` — :class:`~repro.telemetry.manifest.RunManifest`:
  provenance plus telemetry counters/gauges (informational — trended,
  never gated);
* ``crosscheck`` — the predict × static × shadow × tree agreement
  summary (``repro-analyze --crosscheck`` / the ``crosscheck``
  experiment): pairwise agreement fractions plus a hard zero-disagreement
  ceiling;
* ``validate`` — the ``predict-validation`` experiment's line-level
  precision/recall and verdict-agreement accuracy summary.

Anything else is a hard :class:`~repro.errors.ResultsError` — an
unrecognized document in the history would silently dilute every trend,
so the store refuses it (the same "inputs fail loudly" contract as
:class:`~repro.errors.TraceError`).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.errors import ResultsError
from repro.telemetry.bench import ROUTING_FLOOR

__all__ = [
    "STORE_SCHEMA",
    "PAYLOAD_KINDS",
    "KNOWN_SECTIONS",
    "OPTIONAL_METRICS",
    "Metric",
    "classify_payload",
    "extract_metrics",
    "payload_digest",
]

#: Store schema tag recorded in the ``meta`` table; readers demand an
#: exact match (a mis-versioned history must be regenerated, not guessed
#: at — same contract as the trace store's ``STORE_VERSION``).
STORE_SCHEMA = "repro-results/1"

#: Every payload kind the store accepts.
PAYLOAD_KINDS = ("bench", "serve", "serve-scale", "manifest", "crosscheck",
                 "validate")

#: Latency percentiles trended from serve payloads.
_SERVE_PERCENTILES = ("p50", "p95", "p99")

#: Top-level sections a ``bench`` payload may carry.  Anything else is a
#: hard error at ingest: a section no extractor reads would ride into the
#: history ungated, which is exactly the drift that once let a shrunken
#: baseline pass.
KNOWN_SECTIONS = frozenset({
    "bench", "mode", "cpus", "jobs", "repeats",
    "drive", "routing", "store_workers", "telemetry", "e2e",
})

#: Per kind, the metrics only some run modes record (``e2e`` is measured
#: by ``repro-bench --full`` alone).  The gate judges them when the latest
#: run carries them and never reports them missing when it does not.
OPTIONAL_METRICS = {"bench": frozenset({"e2e.parallel_fast_s"})}


@dataclass(frozen=True)
class Metric:
    """One trended number extracted from a payload.

    ``direction`` is ``'higher'`` (more is better), ``'lower'`` (less is
    better) or ``'info'`` (trended but never gated).  ``bound`` is the
    hard backstop no tolerance softens: a *minimum* for higher-is-better
    metrics, a *maximum* for lower-is-better ones.
    """

    name: str
    value: float
    unit: str = ""
    direction: str = "higher"
    bound: Optional[float] = None


def payload_digest(doc: Dict[str, Any]) -> str:
    """Content digest of a payload's canonical JSON form.

    Key order and whitespace do not change the digest, so re-ingesting
    the same document from a differently-formatted file dedups.
    """
    canon = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.blake2b(canon.encode("utf-8"), digest_size=16).hexdigest()


def classify_payload(doc: Any) -> str:
    """The payload kind of ``doc``, or a hard :class:`ResultsError`."""
    if not isinstance(doc, dict):
        raise ResultsError("a results payload must be a JSON object, "
                           f"not {type(doc).__name__}")
    tag = doc.get("report")
    if tag == "crosscheck":
        return "crosscheck"
    if tag == "predict-validation":
        return "validate"
    bench = doc.get("bench")
    if bench == "simulator-throughput" or (bench is None and "drive" in doc):
        return "bench"
    if bench == "serve-throughput" or "loadgen" in doc:
        return "serve"
    if bench == "serve-scale" or "scale" in doc:
        return "serve-scale"
    if str(doc.get("schema", "")).startswith("repro-manifest/"):
        return "manifest"
    if "pairwise_fs_agreement" in doc:
        return "crosscheck"
    if "line_precision" in doc or "verdict_agreement" in doc:
        return "validate"
    keys = ", ".join(sorted(map(str, doc)))[:120] or "<empty>"
    raise ResultsError(
        "unrecognized results payload (keys: "
        f"{keys}); expected one of {PAYLOAD_KINDS} — an unknown document "
        "must not enter the history silently")


def _num(v: Any) -> Optional[float]:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        return None
    return float(v)


def _bench_metrics(doc: Dict[str, Any]) -> List[Metric]:
    unknown = sorted(set(doc) - KNOWN_SECTIONS)
    if unknown:
        raise ResultsError(
            f"bench payload carries unknown section(s) {unknown}: no "
            "extractor reads them, so they would ride ungated — teach "
            "repro.results.schema about the new section (and add it to "
            "KNOWN_SECTIONS)")
    drive = doc.get("drive")
    if not isinstance(drive, dict) or not drive:
        raise ResultsError(
            "bench payload has no 'drive' section (or an empty one): "
            "refusing to ingest a run with nothing to gate — regenerate "
            "the payload with repro-bench")
    out: List[Metric] = []
    for label, row in sorted(drive.items()):
        if not isinstance(row, dict):
            raise ResultsError(f"bench drive row {label!r} is not an object")
        fast = _num(row.get("fast_accesses_per_s"))
        if fast is None or fast <= 0:
            raise ResultsError(
                f"bench drive row {label!r} has no positive "
                "fast_accesses_per_s — the gate keys on it; regenerate "
                "the payload")
        out.append(Metric(f"drive.{label}.fast_accesses_per_s", fast,
                          "acc/s", "higher"))
        speed = _num(row.get("speedup"))
        if speed is not None:
            out.append(Metric(f"drive.{label}.speedup", speed, "x",
                              "higher", bound=_num(row.get("speedup_floor"))))
    routing = doc.get("routing") or {}
    cov = _num(routing.get("coverage"))
    if cov is not None:
        # A routing section that records no floor still gates at the
        # shipping one.
        out.append(Metric("routing.coverage", cov, "frac", "higher",
                          bound=_num(routing.get("floor")) or ROUTING_FLOOR))
    e2e = _num((doc.get("e2e") or {}).get("parallel_fast_s"))
    if e2e is not None:
        out.append(Metric("e2e.parallel_fast_s", e2e, "s", "lower"))
    return out


def _serve_metrics(doc: Dict[str, Any]) -> List[Metric]:
    out: List[Metric] = []
    lg = doc.get("loadgen") or {}
    rps = _num(lg.get("throughput_rps"))
    if rps is not None:
        out.append(Metric("loadgen.throughput_rps", rps, "req/s", "higher"))
    lat = lg.get("latency_ms") or {}
    for pct in _SERVE_PERCENTILES:
        v = _num(lat.get(pct))
        if v is not None:
            out.append(Metric(f"loadgen.latency_ms.{pct}", v, "ms", "lower"))
    for counter in ("shed", "errors"):
        v = _num(lg.get(counter))
        if v is not None:
            # Zero shed/errors is the serve job's hard requirement.
            out.append(Metric(f"loadgen.{counter}", v, "req", "lower",
                              bound=0.0))
    vps = _num(doc.get("predict_batch_vectors_per_s"))
    if vps is not None:
        out.append(Metric("predict_batch_vectors_per_s", vps, "vec/s",
                          "higher"))
    out.extend(_scale_section_metrics(doc))
    return out


def _scale_section_metrics(doc: Dict[str, Any]) -> List[Metric]:
    """Metrics of a sharded-fleet ``scale`` section (possibly embedded)."""
    scale = doc.get("scale") or {}
    if not isinstance(scale, dict):
        raise ResultsError("'scale' section must be an object")
    out: List[Metric] = []
    vps = _num(scale.get("throughput_vps"))
    if vps is not None:
        out.append(Metric("scale.throughput_vps", vps, "vec/s", "higher"))
    lat = scale.get("latency_ms") or {}
    for pct in _SERVE_PERCENTILES:
        v = _num(lat.get(pct))
        if v is not None:
            out.append(Metric(f"scale.latency_ms.{pct}", v, "ms", "lower"))
    shed = _num(scale.get("shed"))
    if shed is not None:
        # The explicit shed ceiling is a hard bound: a scale run that
        # shed more than it declared acceptable can never pass the gate.
        ceiling = _num(scale.get("shed_ceiling"))
        out.append(Metric("scale.shed", shed, "vec", "lower",
                          bound=ceiling if ceiling is not None else 0.0))
    errors = _num(scale.get("errors"))
    if errors is not None:
        out.append(Metric("scale.errors", errors, "vec", "lower", bound=0.0))
    speedup = _num(scale.get("speedup_vs_single"))
    if speedup is not None:
        out.append(Metric("scale.speedup_vs_single", speedup, "x", "higher"))
    # Host/topology provenance rides along so cross-host trajectories
    # are comparable (a 1-cpu laptop number never gates a 4-cpu CI one).
    for key in ("workers", "connections", "batch"):
        v = _num(scale.get(key))
        if v is not None:
            out.append(Metric(f"scale.{key}", v, "", "info"))
    for key in ("cpus", "affinity_cpus"):
        v = _num(doc.get(key))
        if v is not None:
            out.append(Metric(f"host.{key}", v, "", "info"))
    return out


def _manifest_metrics(doc: Dict[str, Any]) -> List[Metric]:
    out: List[Metric] = []
    for family in ("counters", "gauges"):
        for name, v in sorted((doc.get(family) or {}).items()):
            num = _num(v)
            if num is not None:
                out.append(Metric(f"{family[:-1]}.{name}", num, "",
                                  "info"))
    return out


def _crosscheck_metrics(doc: Dict[str, Any]) -> List[Metric]:
    out: List[Metric] = []
    for pair, v in sorted((doc.get("pairwise_fs_agreement") or {}).items()):
        num = _num(v)
        if num is not None:
            out.append(Metric(f"agreement.{pair}", num, "frac", "higher"))
    dis = doc.get("disagreements")
    if isinstance(dis, list):
        # Grid accuracy must stay at full agreement: any disagreement is
        # a hard failure, matching `repro-analyze --crosscheck`'s exit 1.
        out.append(Metric("disagreements", float(len(dis)), "cases",
                          "lower", bound=0.0))
    return out


def _validation_metrics(doc: Dict[str, Any],
                        prefix: str = "") -> List[Metric]:
    out: List[Metric] = []
    for key, direction in (("line_precision", "higher"),
                           ("line_recall", "higher"),
                           ("verdict_agreement", "higher")):
        v = _num(doc.get(key))
        if v is not None:
            out.append(Metric(prefix + key, v, "frac", direction))
    for sweep in ("registry", "suite"):
        sub = doc.get(sweep)
        if isinstance(sub, dict):
            out.extend(_validation_metrics(sub, prefix=f"{sweep}."))
    return out


_EXTRACTORS = {
    "bench": _bench_metrics,
    "serve": _serve_metrics,
    "serve-scale": _scale_section_metrics,
    "manifest": _manifest_metrics,
    "crosscheck": _crosscheck_metrics,
    "validate": _validation_metrics,
}


def extract_metrics(kind: str, doc: Dict[str, Any]) -> List[Metric]:
    """All trended metrics of a classified payload.

    An ingestable payload that yields *no* metrics is refused: a run row
    with nothing to trend can only dilute ``list`` output and can never
    be gated, so it is treated as a malformed document.
    """
    try:
        extractor = _EXTRACTORS[kind]
    except KeyError:
        raise ResultsError(f"unknown payload kind {kind!r}; expected one "
                           f"of {PAYLOAD_KINDS}") from None
    metrics = extractor(doc)
    if not metrics:
        raise ResultsError(f"{kind} payload carries no extractable "
                           "metrics — refusing to ingest an empty run")
    seen: Dict[str, Metric] = {}
    for m in metrics:
        if m.name in seen:
            raise ResultsError(f"duplicate metric {m.name!r} in {kind} "
                               "payload")
        seen[m.name] = m
    return metrics
