"""Benchmark of both detection pipelines, with a per-layer ledger.

Run from the repository root::

    python3 perfbench/run.py --workload contended-line --seed 1 \\
        --seconds 30 --trace 0

Every workload runs both pipelines, in alternating rounds, each for half
of ``--seconds``:

* offline: sweeps of a case pool through trace -> drive -> pmu -> classify
  -> verify (``offline.py``);
* online: a closed loop of classify requests through the program's fleet,
  a router and two worker processes (``online.py``, ``host.py``), serving
  vectors measured on the offline cases.

``contended-line`` sweeps programs with false sharing and sends one
vector per request line; ``private-batch`` sweeps programs without false
sharing and sends 256 vectors of one source per line.

``--trace 0`` prints the end-to-end metrics, measured with no layer timer
in place; ``--trace 1`` wraps every layer and prints the per-layer ledger.
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODEL = ROOT / "models" / "detector.json"

#: Request framing: (vectors per line, client connections, lines in flight
#: per connection), as the repository's own serving load generators drive
#: it.  ``LINE`` is ``run_loadgen``: one connection with 512 one-vector
#: lines in flight (``repro-serve bench --window``).  ``BATCH`` is
#: ``run_scale_loadgen``: four connections, eight lines in flight on each,
#: 256 vectors of one source per line (``--connections``, ``--scale-batch``;
#: 256 is also a worker's ``max_batch``).
LINE = (1, 1, 512)
BATCH = (256, 4, 8)

#: workload -> (offline case pool, request framing).
WORKLOADS = {
    "contended-line": ("contended", LINE),
    "private-batch": ("private", BATCH),
}

SETUPS = 3             # fleet start-ups per run; setup_s is their median
ROUNDS = 16            # offline and online phases alternate this often
OFFLINE_SHARE = 0.5    # share of --seconds spent on offline sweeps
WARMUP_S = 0.25        # untimed start of every online phase
SLICE_S = 0.25         # online metrics are quartiles over slices this long
VECTORS_PER_SOURCE = 256  # distinct noisy measurements per served source
SOURCES_PER_CASE = 4      # sources each case's served vectors come from

END_TO_END = {
    "offline_cases_per_s": "1/s",
    "serve_vectors_per_s": "1/s",
    "serve_p50_ms": "ms",
    "serve_p99_ms": "ms",
    "setup_s": "s",
}

#: (metric, ledger layer, scale of seconds per call, unit).  Offline layers
#: are timed per case, serving layers per request line (``predict`` per
#: call), in the order a case or a request passes through them.
LAYERS = (
    ("trace_ms", "trace", 1e3, "ms"),
    ("drive_ms", "drive", 1e3, "ms"),
    ("pmu_us", "pmu", 1e6, "us"),
    ("classify_us", "classify", 1e6, "us"),
    ("verify_ms", "verify", 1e3, "ms"),
    ("router_peek_us", "peek", 1e6, "us"),
    ("parse_us", "parse", 1e6, "us"),
    ("queue_us", "queue", 1e6, "us"),
    ("predict_us", "predict", 1e6, "us"),
    ("encode_us", "encode", 1e6, "us"),
    ("router_account_us", "account", 1e6, "us"),
)


def _check_program() -> None:
    if not (ROOT / "src" / "repro").is_dir() or not MODEL.is_file():
        raise SystemExit("perfbench: run from a repository checkout: "
                         f"{ROOT / 'src' / 'repro'} and {MODEL} must exist")
    sys.path.insert(0, str(ROOT / "src"))


def _per_call(row, scale: float) -> float:
    return row[1] / row[0] * scale if row[0] else 0.0


class OfflineRounds:
    """Whole sweeps of the pool, a time budget at a time.

    Sweeps take the allowed CPUs in turn.  On a shared host one CPU can run
    persistently slower than another, and a sweep left to the scheduler
    lands on either; with each case's fastest sweep counting, the figure
    is the pool's speed on the least disturbed CPU.
    """

    def __init__(self, pipeline, pool) -> None:
        self.pipeline = pipeline
        self.pool = pool
        self.cpus = sorted(os.sched_getaffinity(0))
        self.best: dict = {}
        self.sweeps = 0
        self.spent = 0.0
        self.results: dict = {}

    def run_until(self, total: float) -> None:
        """Sweep until ``total`` seconds of sweeps have run, counting
        earlier rounds, so that whole sweeps do not add up to overrun."""
        try:
            while self.spent < total or not self.sweeps:
                t0 = time.perf_counter()
                os.sched_setaffinity(0, {self.cpus[self.sweeps % len(self.cpus)]})
                times, self.results = self.pipeline.sweep(self.pool, self.sweeps)
                for tag, dt in times.items():
                    self.best[tag] = min(dt, self.best.get(tag, dt))
                self.sweeps += 1
                self.spent += time.perf_counter() - t0
        finally:
            os.sched_setaffinity(0, self.cpus)

    def cases_per_s(self) -> float:
        return len(self.pool) / sum(self.best.values())


def served_vectors(pipeline, results, seed: int):
    """Noisy Table 2 vectors of every offline case, tagged by source.

    Each case's vectors come from ``SOURCES_PER_CASE`` sources, so that the
    router's hash ring splits the traffic about evenly between the
    workers; ten sources alone can split 7:3.
    """
    import numpy as np

    rows, sources = [], []
    for tag, result in sorted(results.items()):
        for s in range(SOURCES_PER_CASE):
            for j in range(VECTORS_PER_SOURCE):
                vec = pipeline.sampler.measure(
                    result, pipeline.events, run_id=f"serve-{seed}-{s}-{j}")
                rows.append(vec.features(pipeline.features))
                sources.append(f"{tag}#{s}")
    return np.vstack(rows), sources


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    import numpy as np

    from ledger import Ledger
    from offline import POOLS, OfflinePipeline
    import online
    from repro.ml.persistence import load_classifier
    from repro.serve.inference import CompiledTree

    pool_name, (batch, connections, window) = WORKLOADS[workload]
    pool = POOLS[pool_name]
    clf = load_classifier(MODEL)
    compiled = CompiledTree.from_classifier(clf)
    off_ledger = Ledger() if trace else None
    pipeline = OfflinePipeline(compiled, clf.root_, seed, off_ledger)
    # First calls import the suite models and kernels; keep that out of
    # the timed sweeps.
    for case in (pool[0], next(c for c in pool if c.suite)):
        pipeline.run_case(case, seed)
    if off_ledger is not None:
        off_ledger.rows.clear()

    offline = OfflineRounds(pipeline, pool)
    served = online.LoopResult()
    serve_s = max(seconds * (1 - OFFLINE_SHARE) / ROUNDS - WARMUP_S, SLICE_S)
    fleet = online.Fleet(MODEL, trace, SETUPS)
    try:
        before = fleet.snap()
        cursor = 0
        for r in range(ROUNDS):
            offline.run_until(seconds * OFFLINE_SHARE * (r + 1) / ROUNDS)
            if r == 0:
                X, sources = served_vectors(pipeline, offline.results, seed)
                expected = compiled.predict_batch(X)
                reference = np.array([clf.root_.predict_one(x) for x in X])
                if not np.array_equal(expected, reference):
                    pipeline.failures.append(
                        "compiled tree disagrees with the recursive walk "
                        "on served vectors")
                lines = online.request_lines(X, sources, batch)
                order = np.random.default_rng([seed, 7]).permutation(len(lines))
                lines = [lines[i] for i in order]
            cursor = online.closed_loop(
                fleet.address, lines, expected, connections, window, WARMUP_S,
                serve_s, served, cursor)
        after = fleet.snap()
    finally:
        fleet.stop()

    failures = pipeline.failures + served.failures
    problem = online.ledger_consistent(after["router"])
    if problem:
        failures.append(problem)
    for msg in failures:
        print(f"perfbench: {msg}", file=sys.stderr)

    if not trace:
        # What the fleet sustains in three quarters of the slices: the
        # lower quartile of rates, the upper quartile of latencies.  A
        # closed loop falls into a faster or a slower pattern for a phase
        # at a time, and a median would jump when the faster one turns up
        # in half of the phases.
        rates, p50, p99 = online.slice_stats(served, SLICE_S)
        metrics = {
            "offline_cases_per_s": offline.cases_per_s(),
            "serve_vectors_per_s": statistics.quantiles(rates, n=4)[0],
            "serve_p50_ms": statistics.quantiles(p50, n=4)[2],
            "serve_p99_ms": statistics.quantiles(p99, n=4)[2],
            "setup_s": statistics.median(fleet.setup_times),
        }
        metrics = {name: {"value": value, "unit": END_TO_END[name]}
                   for name, value in metrics.items()}
    else:
        metrics = layer_metrics(off_ledger, before, after)

    return {
        "correct": not failures,
        "attempted": pipeline.cases_run + served.sent_vectors,
        "failed": pipeline.failed_cases + served.failed_vectors,
        "metrics": metrics,
    }


def layer_metrics(off_ledger, before, after) -> dict:
    """Busy time per call of every layer, outermost first."""
    import online

    layers, cpu = online.host_ledger(before, after)
    layers.update(off_ledger.rows)
    rb, ra = before["router"], after["router"]
    lines = ra["requests"] - rb["requests"]
    vectors = ra["vectors"]["completed"] - rb["vectors"]["completed"]
    out = {name: (_per_call(layers[layer], scale), unit)
           for name, layer, scale, unit in LAYERS}
    out["router_cpu_us"] = (cpu["router"] / lines * 1e6, "us")
    out["worker_cpu_us"] = (cpu["worker"] / vectors * 1e6, "us")
    calls, _, rows = layers["predict"]
    out["batch_rows"] = (rows / calls, "count")
    return {name: {"value": v, "unit": unit} for name, (v, unit) in out.items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    _check_program()

    def _timeout(signum, frame):
        raise TimeoutError("run exceeded its time limit")

    signal.signal(signal.SIGALRM, _timeout)
    signal.alarm(int(args.seconds) + 120)
    result = run(args.workload, args.seed, args.seconds, args.trace)
    signal.alarm(0)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
