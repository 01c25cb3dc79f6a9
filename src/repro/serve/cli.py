"""``repro-serve``: run, exercise and benchmark the detection service.

* ``repro-serve start`` — run the JSON-lines TCP server in the foreground
  (loads ``models/detector.json`` when present, otherwise trains);
* ``repro-serve classify WORKLOAD [options]`` — measure one run on the
  simulated testbed and classify it through a running server (the
  end-to-end online workflow);
* ``repro-serve bench`` — climb the same-run serving ladder
  (:data:`repro.serve.loadgen.RUNGS`: one server with line requests, one
  server with batch lines, router + worker processes with batch lines)
  over the deterministic load-generator stream, and write
  ``BENCH_serve.json`` (throughput, p50/p95/p99 latency, shed and error
  counts per rung); exit 1 on any rung's error, any shed vector or
  inexact accounting.  Performance is judged by ``repro-results gate``
  on the ingested payload, not here;
* ``repro-serve fleet`` — run the sharded tier in the foreground: a
  consistent-hash router with token-bucket admission control in front of
  N worker processes, verdict aggregation on the same endpoint;
* ``repro-serve ping`` — liveness probe against a running server or
  router.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional, Sequence

from repro.errors import ReproError

#: Where the train-once / serve-anywhere model artifact lives.
DEFAULT_MODEL_PATH = Path("models/detector.json")


def _load_or_train_model(path_arg: str, jobs: Optional[int] = None):
    """A fitted classifier: from ``--model``, the committed artifact, or
    a fresh training run (slow; printed loudly)."""
    from repro.ml.persistence import load_classifier

    if path_arg:
        return load_classifier(path_arg)
    if DEFAULT_MODEL_PATH.exists():
        return load_classifier(DEFAULT_MODEL_PATH)
    print("no model file found; collecting training data and fitting "
          "(use --model or commit models/detector.json to skip this)",
          file=sys.stderr)
    from repro.core.detector import FalseSharingDetector
    from repro.core.lab import Lab

    lab = Lab()
    det = FalseSharingDetector(lab).fit(jobs=jobs)
    lab.flush()
    return det.classifier


def _add_server_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=7130,
                   help="TCP port (0 = ephemeral; default: %(default)s)")
    p.add_argument("--model", default="",
                   help=f"model JSON (default: {DEFAULT_MODEL_PATH} if "
                        "present, else train)")
    p.add_argument("--max-batch", type=int, default=256,
                   help="micro-batch size cap (default: %(default)s)")
    p.add_argument("--max-wait-ms", type=float, default=2.0,
                   help="max milliseconds a batch waits for stragglers "
                        "(default: %(default)s)")
    p.add_argument("--backlog", type=int, default=4096,
                   help="bounded request-queue size; overflow is shed "
                        "with an 'overloaded' response "
                        "(default: %(default)s)")


def _add_fleet_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--workers", type=int, default=2,
                   help="worker processes (default: %(default)s)")
    p.add_argument("--admit-rate", type=float, default=0.0,
                   help="admission token rate, vectors/s over all sources "
                        "(default: unlimited)")
    p.add_argument("--admit-burst", type=float, default=0.0,
                   help="admission bucket depth in vectors "
                        "(default: 1s of --admit-rate)")
    p.add_argument("--source-rate", type=float, default=0.0,
                   help="per-source admission token rate, vectors/s "
                        "(default: unlimited)")
    p.add_argument("--majority-window", type=int, default=16,
                   help="windows per source in the fleet majority verdict "
                        "(default: %(default)s)")


def _build_fleet(args, model, port: int):
    """A configured FleetThread from CLI options (not yet started)."""
    from repro.serve.admission import AdmissionController
    from repro.serve.aggregate import VerdictAggregator
    from repro.serve.fleet import FleetThread, load_model_doc

    admission = AdmissionController(
        rate=args.admit_rate,
        burst=args.admit_burst or args.admit_rate,
        source_rate=args.source_rate,
        source_burst=args.source_rate,
    )
    return FleetThread(
        load_model_doc(model),
        workers=args.workers,
        host=args.host,
        port=port,
        admission=admission,
        aggregator=VerdictAggregator(majority_window=args.majority_window),
        max_batch=args.max_batch,
        max_wait_s=args.max_wait_ms / 1e3,
        backlog=args.backlog,
    )


def _count(text: str) -> int:
    """An argparse type for counts: a non-negative integer."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def serve_main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description="Online false-sharing detection service: batched "
                    "compiled-tree inference over a JSON-lines TCP "
                    "protocol.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    start = sub.add_parser("start", help="run the server in the foreground")
    _add_server_options(start)

    classify = sub.add_parser(
        "classify",
        help="measure a workload run on the simulated testbed and "
             "classify it through a running server",
    )
    classify.add_argument("workload")
    classify.add_argument("-t", "--threads", type=int, default=6)
    classify.add_argument("-m", "--mode", default="good")
    classify.add_argument("-n", "--size", type=int, default=0)
    classify.add_argument("--pattern", default="random")
    classify.add_argument("--input", default="")
    classify.add_argument("--opt", default="-O2")
    classify.add_argument("--host", default="127.0.0.1")
    classify.add_argument("--port", type=int, default=7130)
    classify.add_argument("--windows", type=int, default=0,
                          help="stream N periodic samples through the "
                               "window aggregator instead of one "
                               "whole-run vector")

    bench = sub.add_parser(
        "bench",
        help="in-process server + deterministic load generator; writes "
             "BENCH_serve.json",
    )
    _add_server_options(bench)
    bench.add_argument("--smoke", action="store_true",
                       help="small request count for CI (default: full)")
    bench.add_argument("--requests", type=_count, default=0,
                       help="vectors on the line rung; the batch rungs "
                            "send 10x (default: 2000 smoke / 20000 full)")
    bench.add_argument("--output", default="BENCH_serve.json",
                       help="result document path (default: %(default)s)")
    bench.add_argument("--results-store", default="",
                       help="also ingest the result document into this "
                            "repro-results store")
    bench.add_argument("--seed", type=int, default=0)

    fleet = sub.add_parser(
        "fleet",
        help="run the sharded tier in the foreground: router + admission "
             "control + N worker processes + verdict aggregation",
    )
    _add_server_options(fleet)
    _add_fleet_options(fleet)

    ping = sub.add_parser("ping", help="liveness probe")
    ping.add_argument("--host", default="127.0.0.1")
    ping.add_argument("--port", type=int, default=7130)

    args = parser.parse_args(argv)
    try:
        if args.cmd == "start":
            return _cmd_start(args)
        if args.cmd == "classify":
            return _cmd_classify(args)
        if args.cmd == "bench":
            return _cmd_bench(args)
        if args.cmd == "fleet":
            return _cmd_fleet(args)
        if args.cmd == "ping":
            return _cmd_ping(args)
        parser.error(f"unknown command {args.cmd!r}")
        return 2
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _cmd_start(args) -> int:
    import asyncio

    from repro.serve.server import DetectionServer

    model = _load_or_train_model(args.model)
    server = DetectionServer(
        model,
        host=args.host,
        port=args.port,
        max_batch=args.max_batch,
        max_wait_s=args.max_wait_ms / 1e3,
        backlog=args.backlog,
    )

    async def _run() -> None:
        host, port = await server.start()
        stats = server.stats()
        print(f"repro-serve listening on {host}:{port} "
              f"(tree: {stats['model']['nodes']} nodes, "
              f"batch<= {args.max_batch}, backlog {args.backlog})")
        try:
            await server.serve_forever()
        except asyncio.CancelledError:
            pass

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:
        print("shutting down (draining in-flight requests)")
        import asyncio as _a

        _a.run(server.stop(drain=True))
    return 0


def _cmd_classify(args) -> int:
    from repro.cli import _build_config, _resolve_target
    from repro.core.lab import Lab
    from repro.pmu.events import TABLE2_EVENTS
    from repro.serve.client import ServeClient
    from repro.serve.stream import WindowAggregator
    from repro.utils.stats import majority

    target, kind = _resolve_target(args.workload)
    cfg = _build_config(target, kind, args)
    lab = Lab()
    with ServeClient(args.host, args.port) as client:
        if args.windows:
            result = lab.simulate(target, cfg)
            agg = WindowAggregator(window=max(result.seconds, 1e-9)
                                   / args.windows)
            windows = agg.add_stream(
                lab.sampler.measure_stream(result, TABLE2_EVENTS,
                                           windows=args.windows,
                                           run_id=cfg.run_id())
            )
            labels = [client.classify(w.features, rid=w.index)
                      for w in windows]
            for w, label in zip(windows, labels):
                print(f"  window {w.index:3d} "
                      f"[{w.t_start * 1e3:8.3f}ms - "
                      f"{w.t_end * 1e3:8.3f}ms] -> {label}")
            label = majority(labels)
        else:
            vec = lab.measure(target, cfg, TABLE2_EVENTS)
            label = client.classify_counts(vec.values)
    lab.flush()
    print(f"{args.workload} [{cfg.run_id()}] -> {label}")
    return 0 if label == "good" else 1


def _cmd_bench(args) -> int:
    import numpy as np

    from repro.serve.fleet import FleetThread, load_model_doc
    from repro.serve.inference import as_compiled
    from repro.serve.loadgen import (
        RUNGS,
        SHED_CEILING,
        bench_payload,
        generate_stream,
        measure_predict_batch,
        run_loadgen,
    )
    from repro.serve.loopthread import LoopThread
    from repro.serve.server import ServerThread

    n = args.requests or (2_000 if args.smoke else 20_000)
    model = _load_or_train_model(args.model)
    compiled = as_compiled(model)
    print(f"generating {n} request vectors (deterministic, seed "
          f"{args.seed})...")
    X, tags = generate_stream(n, seed=args.seed)
    vps = measure_predict_batch(compiled, X)
    # Every rung boots on an ephemeral port: the bench must not collide
    # with a real server.
    tier = dict(host=args.host, port=0, max_batch=args.max_batch,
                max_wait_s=args.max_wait_ms / 1e3, backlog=args.backlog)
    rows = {}
    for rung in RUNGS:
        thread: LoopThread
        if rung.workers:
            thread = FleetThread(load_model_doc(model),
                                 workers=rung.workers, **tier)
        else:
            thread = ServerThread(compiled, **tier)
        host, port = thread.start()
        try:
            result = run_loadgen(
                host, port, np.tile(X, (rung.scale, 1)), tags * rung.scale,
                connections=rung.connections, batch=rung.batch,
                window=rung.window)
        finally:
            thread.stop()
        rows[rung.name] = {**result.to_dict(),
                           "tier": "fleet" if rung.workers else "server",
                           "workers": rung.workers}

    payload = bench_payload(rows, vps,
                            mode="smoke" if args.smoke else "full")
    out = Path(args.output)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(payload, indent=2) + "\n")
    if args.results_store:
        from repro.results.store import ResultsStore

        with ResultsStore(args.results_store) as store:
            outcome = store.ingest(payload, source=out.name)
        print(f"results: run #{outcome.run_id} [{outcome.kind}] -> "
              f"{args.results_store}"
              + ("" if outcome.fresh else " (deduped)"))
    print(f"result: {out}")
    print(f"  predict_batch   {vps:12,.0f} vectors/s (offline)")
    failures = []
    for name, row in rows.items():
        lat = row["latency_ms"]
        print(f"  {name:<14s}  {row['throughput_vps']:12,.0f} vectors/s "
              f"({row['vectors']} vectors, {row['connections']} conn, "
              f"batch {row['batch']}, window {row['window']})")
        print(f"  {'':<14s}  latency ms/line p50 {lat['p50']:.3f}  "
              f"p95 {lat['p95']:.3f}  p99 {lat['p99']:.3f}  "
              f"shed {row['shed']}  errors {row['errors']}")
        if row["errors"]:
            failures.append(f"{name}: errors {row['errors']}")
        if row["completed"] + row["shed"] != row["vectors"]:
            failures.append(f"{name}: accounting: completed "
                            f"{row['completed']} + shed {row['shed']} != "
                            f"{row['vectors']} vectors")
        if row["shed"] > SHED_CEILING:
            failures.append(f"{name}: shed {row['shed']} > ceiling "
                            f"{SHED_CEILING}")
    for failure in failures:
        print(f"serve bench: FAIL ({failure})", file=sys.stderr)
    if failures:
        return 1
    print("serve bench: PASS")
    return 0


def _cmd_fleet(args) -> int:
    import time

    model = _load_or_train_model(args.model)
    fleet_thread = _build_fleet(args, model, port=args.port)
    host, port = fleet_thread.start()
    stats = fleet_thread.stats()
    sup = stats["supervisor"]
    print(f"repro-serve fleet listening on {host}:{port} "
          f"({sup['alive']}/{sup['workers']} workers "
          f"started in {sup['start_s']:.2f}s, "
          f"batch<= {args.max_batch}, "
          f"admission {'on' if args.admit_rate or args.source_rate else 'off'})")
    try:
        while True:
            time.sleep(3600)
    except KeyboardInterrupt:
        print("shutting down fleet")
        fleet_thread.stop()
    return 0


def _cmd_ping(args) -> int:
    from repro.serve.client import ServeClient

    with ServeClient(args.host, args.port) as client:
        ok = client.ping()
    print("ok" if ok else "no response")
    return 0 if ok else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(serve_main())
