"""Deterministic load generator for the detection service.

Replays suite-derived event streams against a running server and reports
what a capacity plan needs: sustained throughput, p50/p95/p99 latency and
the shed count.  The stream is generated from the same simulated testbed
as everything else in this repo — a fixed mix of mini-program and
Phoenix/PARSEC runs (good, bad-fs and bad-ma cases), re-measured with
fresh PMU noise per request — so the vectors are exactly the distribution
the detector sees in production, and two runs with the same seed produce
bit-identical request streams.

``BENCH_serve.json`` at the repo root is this module's output (via
``repro-serve bench``); CI replays a smoke-sized run and fails on any
shed, so the serving path's capacity is tracked per PR like the
simulator's throughput is.
"""

from __future__ import annotations

import json
import socket
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.core.lab import Lab
from repro.errors import ServeError
from repro.utils.stats import tally

__all__ = ["LoadGenResult", "ScaleResult", "generate_stream", "run_loadgen",
           "run_scale_loadgen", "measure_predict_batch", "bench_payload",
           "SHED_CEILING"]

#: Shed requests (or scale vectors) ``repro-serve bench`` tolerates: the
#: bench load must never trip backpressure.  Recorded as the scale
#: section's ``shed_ceiling``, which ``repro-results`` gates as a bound.
SHED_CEILING = 0

#: The replayed mix: (workload-ish, config factory, expected flavour).
#: Mini-programs cover the three classes cheaply; the two suite cases are
#: the paper's marquee false-sharing programs (linear_regression at -O0,
#: streamcluster) so the served stream contains real "production" vectors.
def _stream_mix() -> List[Tuple[object, object, str]]:
    from repro.suites import get_program
    from repro.suites.base import SuiteCase
    from repro.workloads.base import Mode, RunConfig
    from repro.workloads.registry import get_workload

    psums = get_workload("psums")
    pdot = get_workload("pdot")
    seq = get_workload("seq_read")
    lr = get_program("linear_regression")
    sc = get_program("streamcluster")
    size = psums.train_sizes[-1]
    return [
        (psums, RunConfig(threads=4, mode=Mode.GOOD, size=size), "good"),
        (psums, RunConfig(threads=4, mode=Mode.BAD_FS, size=size), "bad-fs"),
        (pdot, RunConfig(threads=6, mode=Mode.GOOD,
                         size=pdot.train_sizes[-1]), "good"),
        (seq, RunConfig(threads=1, mode=Mode.BAD_MA, size=65_536,
                        pattern="stride16"), "bad-ma"),
        (lr, SuiteCase("50MB", "-O0", 6), "suite:linear_regression"),
        (sc, SuiteCase("simsmall", "-O2", 4), "suite:streamcluster"),
    ]


def generate_stream(
    n: int,
    seed: int = 0,
    lab: Optional[Lab] = None,
    distinct: int = 2048,
) -> Tuple[np.ndarray, List[str]]:
    """``n`` normalized feature vectors + their source tags, deterministic.

    Each base run in the mix is simulated once (cached); requests cycle
    through the mix with a fresh PMU-noise draw per repetition (``rep``
    keys the draw), so up to ``distinct`` genuinely different measurements
    are produced and then tiled to length ``n`` — a replayed stream.
    """
    from repro.core.training import FEATURES
    from repro.pmu.events import TABLE2_EVENTS

    if n < 1:
        raise ValueError("n must be >= 1")
    lab = lab or Lab(seed=seed)
    mix = _stream_mix()
    base = min(n, max(len(mix), distinct))
    # One simulation per base run (cached on disk across invocations);
    # every replayed request then re-reads the PMU with its own run_id, so
    # the noise draw — and therefore the vector — differs per request
    # exactly as repeated measurements of one run differ on hardware.
    results = [lab.simulate(workload, cfg) for workload, cfg, _ in mix]
    rows: List[np.ndarray] = []
    tags: List[str] = []
    for i in range(base):
        j = i % len(mix)
        vec = lab.sampler.measure(results[j], TABLE2_EVENTS,
                                  run_id=f"loadgen-{i}")
        rows.append(vec.features(FEATURES))
        tags.append(mix[j][2])
    lab.flush()
    X = np.vstack(rows)
    reps = -(-n // base)
    X = np.tile(X, (reps, 1))[:n]
    tags = (tags * reps)[:n]
    return X, tags


@dataclass
class LoadGenResult:
    """One load-generation run, ready to serialize into BENCH_serve.json."""

    requests: int
    window: int
    seconds: float
    throughput_rps: float
    latency_ms: Dict[str, float]
    shed: int
    errors: int
    labels: Dict[str, int] = field(default_factory=dict)
    server: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "requests": self.requests,
            "window": self.window,
            "seconds": round(self.seconds, 4),
            "throughput_rps": round(self.throughput_rps, 1),
            "latency_ms": {k: round(v, 4)
                           for k, v in self.latency_ms.items()},
            "shed": self.shed,
            "errors": self.errors,
            "labels": dict(self.labels),
            "server": self.server,
        }


def run_loadgen(
    host: str,
    port: int,
    X: np.ndarray,
    window: int = 512,
) -> LoadGenResult:
    """Replay ``X`` against a running server over one pipelined connection."""
    from repro.serve.client import ServeClient

    with ServeClient(host, port) as client:
        bulk = client.classify_many(X, window=window)
        server_stats = client.stats()
    return LoadGenResult(
        requests=X.shape[0] if X.ndim == 2 else 1,
        window=window,
        seconds=bulk.seconds,
        throughput_rps=bulk.throughput_rps,
        latency_ms=bulk.latency_percentiles_ms(),
        shed=bulk.shed,
        errors=bulk.errors,
        labels=tally(lab for lab in bulk.labels if lab is not None),
        server={
            "batches": server_stats.get("batches"),
            "max_batch_seen": server_stats.get("max_batch_seen"),
            "shed": server_stats.get("shed"),
            "config": server_stats.get("config", {}),
        },
    )


@dataclass
class ScaleResult:
    """One multi-connection batched run against the fleet router."""

    vectors: int
    requests: int          # batch-framed JSON lines sent
    connections: int
    batch: int
    seconds: float
    throughput_vps: float  # completed vectors / wall seconds
    latency_ms: Dict[str, float]   # per batch line, send -> response
    completed: int
    shed: int              # vectors, all reasons
    errors: int            # vectors lost to non-shed errors
    labels: Dict[str, int] = field(default_factory=dict)
    router: Dict[str, Any] = field(default_factory=dict)
    fleet: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "vectors": self.vectors,
            "requests": self.requests,
            "connections": self.connections,
            "batch": self.batch,
            "seconds": round(self.seconds, 4),
            "throughput_vps": round(self.throughput_vps, 1),
            "latency_ms": {k: round(v, 4)
                           for k, v in self.latency_ms.items()},
            "completed": self.completed,
            "shed": self.shed,
            "errors": self.errors,
            "labels": dict(self.labels),
            "router": self.router,
            "fleet": self.fleet,
        }


class _ConnStats:
    """Per-connection tallies filled in by one driver thread."""

    def __init__(self) -> None:
        self.latency_s: List[float] = []
        self.labels: Dict[str, int] = {}
        self.completed = 0
        self.shed = 0
        self.errors = 0
        self.failure: Optional[BaseException] = None


def _drive_scale_connection(
    host: str,
    port: int,
    jobs: List[Tuple[bytes, int]],
    window: int,
    barrier: threading.Barrier,
    out: _ConnStats,
) -> None:
    """Send batch-framed lines with ``window`` in flight; match by id.

    Unlike the single-server pipelined path, router responses for one
    client connection are *not* FIFO — different sources live on
    different shards — so responses are matched to requests by ``id``.
    """
    try:
        sock = socket.create_connection((host, port), timeout=60.0)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        rfile = sock.makefile("rb")
        rows_of = {i: rows for i, (_, rows) in enumerate(jobs)}
        t_sent: Dict[int, float] = {}
        barrier.wait()
        sent = received = 0
        n = len(jobs)
        while received < n:
            burst = bytearray()
            while sent < n and sent - received < window:
                t_sent[sent] = time.perf_counter()
                burst += jobs[sent][0]
                sent += 1
            if burst:
                sock.sendall(burst)
            line = rfile.readline()
            if not line:
                raise ServeError("connection closed mid-stream")
            t_recv = time.perf_counter()
            resp = json.loads(line)
            rid = resp.get("id")
            if not isinstance(rid, int) or rid not in t_sent:
                raise ServeError(f"response with unknown id: {resp!r}")
            received += 1
            out.latency_s.append(t_recv - t_sent.pop(rid))
            rows = rows_of[rid]
            if "labels" in resp:
                out.completed += len(resp["labels"])
                for lab in resp["labels"]:
                    out.labels[lab] = out.labels.get(lab, 0) + 1
            elif resp.get("error") in ("overloaded", "unavailable",
                                       "backlog", "admission"):
                out.shed += rows
            else:
                out.errors += rows
        rfile.close()
        sock.close()
    except BaseException as exc:  # surfaced by the caller
        out.failure = exc
        try:
            barrier.abort()
        except Exception:
            pass


def run_scale_loadgen(
    host: str,
    port: int,
    X: np.ndarray,
    tags: List[str],
    connections: int = 4,
    batch: int = 256,
    window: int = 8,
) -> ScaleResult:
    """Replay ``X`` as batch-framed lines over concurrent connections.

    Rows are grouped by source tag (order preserved within a source, so
    verdict streams stay coherent), chunked into ``batch``-row lines, and
    the sources are dealt round-robin onto ``connections`` sockets driven
    by one thread each with ``window`` lines in flight.  Request payloads
    are pre-encoded so the measured interval is the serving path, not
    client-side JSON formatting.
    """
    from repro.serve.client import ServeClient

    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] != len(tags):
        raise ServeError("X must be 2-D with one tag per row")
    connections = max(1, int(connections))
    batch = max(1, int(batch))

    by_source: Dict[str, List[int]] = {}
    for i, tag in enumerate(tags):
        by_source.setdefault(str(tag), []).append(i)

    # Request ids are per-connection (the driver matches responses to
    # requests by id within its own socket, where they are unique).
    conn_jobs: List[List[Tuple[bytes, int]]] = [[] for _ in range(connections)]
    total_lines = 0
    for k, (source, idxs) in enumerate(sorted(by_source.items())):
        target = conn_jobs[k % connections]
        for lo in range(0, len(idxs), batch):
            chunk = idxs[lo:lo + batch]
            payload = json.dumps({
                "op": "classify", "id": len(target), "source": source,
                "n": len(chunk),
                "batch": [[float(v) for v in X[i]] for i in chunk],
            }).encode() + b"\n"
            target.append((payload, len(chunk)))
            total_lines += 1

    active = [jobs for jobs in conn_jobs if jobs]
    stats = [_ConnStats() for _ in active]
    barrier = threading.Barrier(len(active) + 1)
    threads = [
        threading.Thread(
            target=_drive_scale_connection,
            args=(host, port, jobs, window, barrier, out),
            daemon=True,
        )
        for jobs, out in zip(active, stats)
    ]
    for t in threads:
        t.start()
    barrier.wait()
    t0 = time.perf_counter()
    for t in threads:
        t.join()
    seconds = time.perf_counter() - t0
    for out in stats:
        if out.failure is not None:
            raise ServeError(
                f"scale loadgen connection failed: {out.failure}"
            ) from out.failure

    latencies = np.array(
        [v for out in stats for v in out.latency_s], dtype=float
    )
    if latencies.size:
        latency_ms = {
            "p50": float(np.percentile(latencies, 50) * 1e3),
            "p95": float(np.percentile(latencies, 95) * 1e3),
            "p99": float(np.percentile(latencies, 99) * 1e3),
            "mean": float(latencies.mean() * 1e3),
            "max": float(latencies.max() * 1e3),
        }
    else:
        latency_ms = {"p50": 0.0, "p95": 0.0, "p99": 0.0,
                      "mean": 0.0, "max": 0.0}
    labels: Dict[str, int] = {}
    for out in stats:
        for lab, cnt in out.labels.items():
            labels[lab] = labels.get(lab, 0) + cnt
    completed = sum(out.completed for out in stats)
    shed = sum(out.shed for out in stats)
    errors = sum(out.errors for out in stats)

    router_stats: Dict[str, Any] = {}
    fleet_summary: Dict[str, Any] = {}
    try:
        with ServeClient(host, port, timeout=10.0) as control:
            router_stats = control.stats()
            resp = control.request({"op": "fleet"})
            fleet_summary = resp.get("fleet", {})
    except ServeError:
        pass  # plain DetectionServer: no fleet endpoint, stats optional

    return ScaleResult(
        vectors=int(X.shape[0]),
        requests=total_lines,
        connections=len(active),
        batch=batch,
        seconds=seconds,
        throughput_vps=completed / seconds if seconds > 0 else 0.0,
        latency_ms=latency_ms,
        completed=completed,
        shed=shed,
        errors=errors,
        labels=labels,
        router=router_stats,
        fleet=fleet_summary,
    )


def measure_predict_batch(
    compiled, X: np.ndarray, repeats: int = 3
) -> float:
    """Vectors/second of the bare compiled tree on this batch (best-of)."""
    best = float("inf")
    for _ in range(max(1, repeats)):
        t0 = time.perf_counter()
        compiled.predict_batch(X)
        best = min(best, time.perf_counter() - t0)
    return X.shape[0] / best if best > 0 else float("inf")


def bench_payload(
    result: LoadGenResult,
    predict_batch_vps: float,
    mode: str = "smoke",
    scale: Optional[ScaleResult] = None,
) -> Dict[str, Any]:
    """The ``BENCH_serve.json`` document for one load-generation run.

    The host provenance (``cpus``, ``affinity_cpus``) is read from the
    machine the bench actually ran on; the ``scale`` section — when a
    fleet run is included — carries the worker count and router config
    straight out of the router's own stats so the recorded throughput
    can never be quoted without its topology.
    """
    import os

    try:
        affinity = len(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        affinity = os.cpu_count()
    doc: Dict[str, Any] = {
        "bench": "serve-throughput",
        "mode": mode,
        "cpus": os.cpu_count(),
        "affinity_cpus": affinity,
        "loadgen": result.to_dict(),
        "predict_batch_vectors_per_s": round(predict_batch_vps),
    }
    if scale is not None:
        router = scale.router
        doc["scale"] = {
            **scale.to_dict(),
            "workers": len(router.get("workers", [])) or None,
            "router_config": router.get("config", {}),
            # Declared acceptable shed — the results store carries it as
            # the hard gate bound on scale.shed.
            "shed_ceiling": SHED_CEILING,
            # Same-run comparison: batched fleet path vs the line-at-a-time
            # single-server path measured moments earlier on this host.
            "speedup_vs_single": round(
                scale.throughput_vps / result.throughput_rps, 2
            ) if result.throughput_rps > 0 else None,
        }
    return doc
