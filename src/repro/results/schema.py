"""Result-store schema: payload kinds, metric extraction, digests.

The durable run store (:mod:`repro.results.store`) is deliberately dumb —
append rows, never rewrite them.  All knowledge about *what* a payload is
and *which numbers inside it are worth trending* lives here, so adding a
new artifact kind is one classifier branch plus one extractor, with the
SQLite layout untouched.

Recognized payload kinds (each a JSON document some part of the repo
already emits — the store ingests them as-is, no new wire format):

* ``bench`` — ``repro-bench`` / ``BENCH_simulator.json``: per-trace drive
  and shadow-oracle throughput + speedups (with their hard
  ``speedup_floor``), store-worker provenance, optional e2e wall time.
  The payload shape is checked at ingest (:data:`KNOWN_SECTIONS`, a
  non-empty ``drive`` table, and every ``drive`` and ``oracle`` row
  carrying a positive throughput), so a drifted document never enters
  any history;
* ``serve`` — ``repro-serve bench`` / ``BENCH_serve.json``: for each
  rung of the serving ladder its throughput, per-line latency
  percentiles and shed/error counts (hard ceilings), plus offline
  batch-inference throughput and host/topology provenance.  The payload
  shape is checked at ingest (:data:`SERVE_SECTIONS`, a non-empty
  ``rungs`` object whose rows all carry a numeric ``throughput_vps``);
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
from repro.serve.loadgen import SHED_CEILING

__all__ = [
    "STORE_SCHEMA",
    "PAYLOAD_KINDS",
    "KNOWN_SECTIONS",
    "SERVE_SECTIONS",
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
PAYLOAD_KINDS = ("bench", "serve", "manifest", "crosscheck", "validate")

#: Latency percentiles trended from serve payloads.
_SERVE_PERCENTILES = ("p50", "p95", "p99")

#: Top-level sections a ``bench`` payload may carry.  Anything else is a
#: hard error at ingest: a section no extractor reads would ride into the
#: history ungated, which is exactly the drift that once let a shrunken
#: baseline pass.
KNOWN_SECTIONS = frozenset({
    "bench", "mode", "cpus", "jobs", "repeats",
    "drive", "oracle", "store_workers", "e2e",
})

#: Top-level sections a ``serve`` payload may carry (the same contract as
#: :data:`KNOWN_SECTIONS`).
SERVE_SECTIONS = frozenset({
    "bench", "mode", "cpus", "affinity_cpus",
    "predict_batch_vectors_per_s", "rungs",
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
    if bench == "serve-throughput":
        return "serve"
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
    for section in ("drive", "oracle"):
        rows = doc.get(section) or {}
        if not isinstance(rows, dict):
            raise ResultsError(f"bench {section} section is not an object")
        for label, row in sorted(rows.items()):
            if not isinstance(row, dict):
                raise ResultsError(
                    f"bench {section} row {label!r} is not an object")
            fast = _num(row.get("fast_accesses_per_s"))
            if fast is None or fast <= 0:
                raise ResultsError(
                    f"bench {section} row {label!r} has no positive "
                    "fast_accesses_per_s — the gate keys on it; regenerate "
                    "the payload")
            out.append(Metric(f"{section}.{label}.fast_accesses_per_s", fast,
                              "acc/s", "higher"))
            speed = _num(row.get("speedup"))
            if speed is not None:
                out.append(Metric(f"{section}.{label}.speedup", speed, "x",
                                  "higher",
                                  bound=_num(row.get("speedup_floor"))))
    e2e = _num((doc.get("e2e") or {}).get("parallel_fast_s"))
    if e2e is not None:
        out.append(Metric("e2e.parallel_fast_s", e2e, "s", "lower"))
    return out


def _serve_metrics(doc: Dict[str, Any]) -> List[Metric]:
    unknown = sorted(set(doc) - SERVE_SECTIONS)
    if unknown:
        raise ResultsError(
            f"serve payload carries unknown section(s) {unknown}: no "
            "extractor reads them, so they would ride ungated — regenerate "
            "the payload with repro-serve bench (or teach "
            "repro.results.schema about the section via SERVE_SECTIONS)")
    rungs = doc.get("rungs")
    if not isinstance(rungs, dict) or not rungs:
        raise ResultsError(
            "serve payload has no 'rungs' object (or an empty one): "
            "refusing to ingest a run with nothing to gate — regenerate "
            "the payload with repro-serve bench")
    out: List[Metric] = []
    for name, rung in sorted(rungs.items()):
        if not isinstance(rung, dict):
            raise ResultsError(f"serve rung {name!r} is not an object")
        vps = _num(rung.get("throughput_vps"))
        if vps is None:
            raise ResultsError(
                f"serve rung {name!r} has no numeric throughput_vps — the "
                "gate keys on it; regenerate the payload")
        out.append(Metric(f"{name}.throughput_vps", vps, "vec/s", "higher"))
        lat = rung.get("latency_ms") or {}
        for pct in _SERVE_PERCENTILES:
            v = _num(lat.get(pct))
            if v is not None:
                out.append(Metric(f"{name}.latency_ms.{pct}", v, "ms",
                                  "lower"))
        # Shed and errors are hard bounds: a rung that shed more than the
        # bench tolerates, or lost any vector, can never pass the gate.
        for counter, bound in (("shed", SHED_CEILING), ("errors", 0)):
            v = _num(rung.get(counter))
            if v is not None:
                out.append(Metric(f"{name}.{counter}", v, "vec", "lower",
                                  bound=float(bound)))
        # Topology rides along (trended, never gated) so a number is
        # never read without the load shape that produced it.
        for key in ("workers", "connections", "batch", "window"):
            v = _num(rung.get(key))
            if v is not None:
                out.append(Metric(f"{name}.{key}", v, "", "info"))
    vps = _num(doc.get("predict_batch_vectors_per_s"))
    if vps is not None:
        out.append(Metric("predict_batch_vectors_per_s", vps, "vec/s",
                          "higher"))
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
    dis = doc.get("disagreements")
    if isinstance(dis, list):
        # Trended, not gated: the suite sweep has a known verdict
        # disagreement that a bound of 0 would fail on every run.
        out.append(Metric(prefix + "disagreements", float(len(dis)),
                          "cases", "info"))
    for sweep in ("registry", "suite"):
        sub = doc.get(sweep)
        if isinstance(sub, dict):
            out.extend(_validation_metrics(sub, prefix=f"{sweep}."))
    return out


_EXTRACTORS = {
    "bench": _bench_metrics,
    "serve": _serve_metrics,
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
