"""Deterministic load generator for the detection service.

Replays suite-derived event streams against a running server or router
and reports what a capacity plan needs: sustained throughput, p50/p95/p99
latency and the shed count.  The stream is generated from the same
simulated testbed as everything else in this repo — a fixed mix of
mini-program and Phoenix/PARSEC runs (good, bad-fs and bad-ma cases),
re-measured with fresh PMU noise per request — so the vectors are exactly
the distribution the detector sees in production, and two runs with the
same seed produce bit-identical request streams.

One driver, :func:`run_loadgen`, produces every serving number.
``BENCH_serve.json`` at the repo root is the output of ``repro-serve
bench``, which climbs the :data:`RUNGS` ladder with it; CI replays a
smoke-sized run and fails on any shed, so the serving path's capacity is
tracked per change like the simulator's throughput is.
"""

from __future__ import annotations

import json
import socket
import threading
import time
from collections import Counter
from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

import numpy as np
from orjson import loads

from repro.errors import ServeError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.lab import Lab

__all__ = ["LoadResult", "Rung", "RUNGS", "generate_stream", "run_loadgen",
           "measure_predict_batch", "bench_payload", "SHED_CEILING",
           "SHED_ERRORS"]

#: Shed vectors ``repro-serve bench`` tolerates on any rung: the bench
#: load must never trip backpressure.  ``repro-results`` gates each
#: rung's ``shed`` with it as a hard bound.
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
    from repro.core.lab import Lab
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


#: Error codes that mean "shed: back off and retry" rather than "failed".
#: The server's full queue and the router's admission and backlog limits
#: answer ``overloaded``, a missing or restarting shard ``unavailable``;
#: ``backlog`` and ``admission`` are the router's names for its reasons.
SHED_ERRORS = frozenset({"overloaded", "unavailable", "backlog", "admission"})


@dataclass(frozen=True)
class Rung:
    """One step of the ``repro-serve bench`` ladder."""

    name: str
    workers: int      # 0: one in-process server; N: router + N processes
    connections: int
    batch: int        # vectors per request line (1 = line mode)
    window: int       # lines in flight per connection
    scale: int        # vectors, as a multiple of the bench's request count


#: The same-run serving ladder.  Neighbouring rungs differ in one
#: variable: first the framing (one vector per line on one connection ->
#: 256-vector lines on four), then the tier (one server -> router + two
#: worker processes).
RUNGS = (
    Rung("server-line", workers=0, connections=1, batch=1, window=512,
         scale=1),
    Rung("server-batch", workers=0, connections=4, batch=256, window=8,
         scale=10),
    Rung("fleet-batch", workers=2, connections=4, batch=256, window=8,
         scale=10),
)


@dataclass
class LoadResult:
    """One load-generation run, ready to serialize into BENCH_serve.json."""

    vectors: int
    requests: int          # JSON lines sent
    connections: int
    batch: int
    window: int
    seconds: float
    throughput_vps: float  # completed vectors / wall seconds
    latency_ms: Dict[str, float]   # per line, send -> response
    completed: int
    shed: int              # vectors, all shed reasons
    errors: int            # vectors lost to any other error
    labels: Dict[str, int] = field(default_factory=dict)
    server: Dict[str, Any] = field(default_factory=dict)  # stats op, after

    def to_dict(self) -> Dict[str, Any]:
        doc = asdict(self)
        doc["seconds"] = round(self.seconds, 4)
        doc["throughput_vps"] = round(self.throughput_vps, 1)
        doc["latency_ms"] = {k: round(v, 4)
                             for k, v in self.latency_ms.items()}
        return doc


class _ConnStats:
    """Per-connection tallies filled in by one driver thread."""

    def __init__(self) -> None:
        self.latency_s: List[float] = []
        self.labels: Counter = Counter()
        self.shed = 0
        self.errors = 0
        self.failure: Optional[Exception] = None


def _drive_connection(
    host: str,
    port: int,
    jobs: List[Tuple[bytes, int]],
    window: int,
    barrier: threading.Barrier,
    out: _ConnStats,
) -> None:
    """Send pre-encoded lines with ``window`` in flight; match by id.

    Router responses for one client connection are *not* FIFO — different
    sources live on different shards — so responses are matched to
    requests by ``id``, which is unique within the connection.
    """
    try:
        with socket.create_connection((host, port), timeout=60.0) as sock, \
                sock.makefile("rb") as rfile:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
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
                resp = loads(line)
                rid = resp.get("id")
                if not isinstance(rid, int) or rid not in t_sent:
                    raise ServeError(f"response with unknown id: {resp!r}")
                received += 1
                out.latency_s.append(t_recv - t_sent.pop(rid))
                if "labels" in resp:
                    out.labels.update(resp["labels"])
                elif "label" in resp:
                    out.labels[resp["label"]] += 1
                elif resp.get("error") in SHED_ERRORS:
                    out.shed += jobs[rid][1]
                else:
                    out.errors += jobs[rid][1]
    except Exception as exc:  # re-raised by run_loadgen
        out.failure = exc
        barrier.abort()


def _encode(rid: int, source: str, rows: np.ndarray, batch: int) -> bytes:
    """One classify line: ``features`` in line mode, else batch-framed."""
    req: Dict[str, Any] = {"op": "classify", "id": rid, "source": source}
    if batch == 1:
        req["features"] = [float(v) for v in rows[0]]
    else:
        req["n"] = len(rows)
        req["batch"] = [[float(v) for v in row] for row in rows]
    return json.dumps(req).encode() + b"\n"


def _percentiles_ms(latency_s: np.ndarray) -> Dict[str, float]:
    if latency_s.size == 0:
        return {"p50": 0.0, "p95": 0.0, "p99": 0.0, "mean": 0.0, "max": 0.0}
    return {
        "p50": float(np.percentile(latency_s, 50) * 1e3),
        "p95": float(np.percentile(latency_s, 95) * 1e3),
        "p99": float(np.percentile(latency_s, 99) * 1e3),
        "mean": float(latency_s.mean() * 1e3),
        "max": float(latency_s.max() * 1e3),
    }


def run_loadgen(
    host: str,
    port: int,
    X: np.ndarray,
    tags: List[str],
    connections: int = 1,
    batch: int = 1,
    window: int = 512,
) -> LoadResult:
    """Replay ``X`` against a server or router and account for every vector.

    Rows are grouped by source tag (order preserved within a source, so
    verdict streams stay coherent) and chunked into ``batch``-row lines;
    ``batch == 1`` sends one ``features`` vector per line, larger batches
    use the ``batch``/``n`` framing.  The sources are dealt round-robin
    onto ``connections`` sockets, each driven by one thread with
    ``window`` lines in flight.  Request payloads are pre-encoded so the
    measured interval is the serving path, not client-side JSON
    formatting.  Shed responses (:data:`SHED_ERRORS`) count as ``shed``,
    any other error as ``errors``, both in vectors.
    """
    from repro.serve.client import ServeClient

    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] != len(tags):
        raise ServeError("X must be 2-D with one tag per row")
    if min(connections, batch, window) < 1:
        raise ServeError("connections, batch and window must be >= 1")

    by_source: Dict[str, List[int]] = {}
    for i, tag in enumerate(tags):
        by_source.setdefault(str(tag), []).append(i)
    conn_jobs: List[List[Tuple[bytes, int]]] = [[] for _ in range(connections)]
    for k, (source, idxs) in enumerate(sorted(by_source.items())):
        target = conn_jobs[k % connections]
        for lo in range(0, len(idxs), batch):
            chunk = idxs[lo:lo + batch]
            target.append((_encode(len(target), source, X[chunk], batch),
                           len(chunk)))

    active = [jobs for jobs in conn_jobs if jobs]
    stats = [_ConnStats() for _ in active]
    barrier = threading.Barrier(len(active) + 1)
    threads = [
        threading.Thread(
            target=_drive_connection,
            args=(host, port, jobs, window, barrier, out),
            daemon=True,
        )
        for jobs, out in zip(active, stats)
    ]
    for t in threads:
        t.start()
    try:
        barrier.wait()
    except threading.BrokenBarrierError:
        pass  # a connection failed before the start; reported below
    t0 = time.perf_counter()
    for t in threads:
        t.join()
    seconds = time.perf_counter() - t0
    for out in stats:
        if out.failure is not None:
            raise ServeError(
                f"loadgen connection failed: {out.failure}"
            ) from out.failure

    labels: Counter = sum((out.labels for out in stats), Counter())
    completed = sum(labels.values())
    with ServeClient(host, port, timeout=10.0) as control:
        server_stats = control.stats()
    return LoadResult(
        vectors=int(X.shape[0]),
        requests=sum(len(jobs) for jobs in active),
        connections=len(active),
        batch=batch,
        window=window,
        seconds=seconds,
        throughput_vps=completed / seconds if seconds > 0 else 0.0,
        latency_ms=_percentiles_ms(np.array(
            [v for out in stats for v in out.latency_s], dtype=float)),
        completed=completed,
        shed=sum(out.shed for out in stats),
        errors=sum(out.errors for out in stats),
        labels=dict(labels),
        server=server_stats,
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
    rungs: Dict[str, Dict[str, Any]],
    predict_batch_vps: float,
    mode: str = "smoke",
) -> Dict[str, Any]:
    """The ``BENCH_serve.json`` document for one run of the ladder.

    ``rungs`` maps each rung name to its :meth:`LoadResult.to_dict` plus
    topology.  The host provenance (``cpus``, ``affinity_cpus``) is read
    from the machine the bench actually ran on, so a recorded throughput
    is never quoted without the host it came from.
    """
    import os

    try:
        affinity = len(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        affinity = os.cpu_count()
    return {
        "bench": "serve-throughput",
        "mode": mode,
        "cpus": os.cpu_count(),
        "affinity_cpus": affinity,
        "predict_batch_vectors_per_s": round(predict_batch_vps),
        "rungs": rungs,
    }
