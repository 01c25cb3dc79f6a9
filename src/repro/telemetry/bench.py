"""``repro-bench``: pinned simulator benchmark replay.

Replays the repository's pinned simulator benchmark grid (the same traces
``benchmarks/test_simulator_throughput.py`` measures), with telemetry
enabled, and emits:

* a ``BENCH_simulator.json``-compatible result document (``--output``);
* a :class:`~repro.telemetry.manifest.RunManifest` next to it
  (``--manifest``) pinning git SHA, seeds, versions and the wall-time tree;
* optionally a Chrome-trace of the run (``--chrome-trace``) and a
  speedup table (``--speedup-table``, the CI artifact that tracks how the
  compiled drive compares with the Python spec loop per trace).

``repro-bench`` only measures: it passes no verdict.  ``--results-store``
ingests the payload into a ``repro-results`` store, whose ingest rejects
a malformed payload (exit 2), and ``repro-results gate`` judges it.  The
CI ``bench`` job compares against the committed baseline by ingesting
``BENCH_simulator.json`` and the fresh result into a two-run store and
gating that (``--max-regression 0.30``).

``--smoke`` runs the drive-throughput grid only (seconds); the full mode
adds the end-to-end ``classify_all + verify_all`` pipeline timing
(minutes).  ``--input`` reuses an existing result file (for the tables or
an ingest) without re-running anything.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import os
import sys
import time
from pathlib import Path
from typing import (Any, Callable, Dict, Iterator, Optional, Sequence,
                    Tuple)

from repro.errors import ReproError
from repro.telemetry.core import TELEMETRY
from repro.telemetry.export import export_chrome_trace
from repro.telemetry.manifest import RunManifest

__all__ = [
    "drive_traces",
    "measure_drive",
    "measure_routing",
    "measure_store_workers",
    "render_speedup_table",
    "render_routing_report",
    "run_bench",
    "bench_main",
    "ROUTING_FLOOR",
    "SPEEDUP_FLOORS",
]

#: Hard per-case speedup floors (the shipping ``fast=True`` drive vs the
#: Python spec loop), one per pinned trace.  Recorded in the bench payload
#: as ``speedup_floor``, which ``repro-results gate`` enforces as a hard
#: bound — unlike throughput, a floored speedup is not softened by
#: ``--max-regression``.
SPEEDUP_FLOORS = {
    "seq_read/good/t1": 1.3,
    "psums/good/t4": 1.3,
    "psums/bad-fs/t4": 1.3,
    "streamcluster/simsmall": 1.3,
}

#: Minimum share of 19-program-grid *accesses* the shipping drive must keep
#: off the Python spec loop (path ``ref``): below it, the compiled loop did
#: not load (no C compiler) or a window bypassed it.  Recorded as
#: ``routing.floor`` and enforced as a hard bound by ``repro-results gate``,
#: like :data:`SPEEDUP_FLOORS`.
ROUTING_FLOOR = 0.95

#: Drive-grid seed state is fully pinned by the workload registry streams;
#: this seed tags the manifest (the grid itself takes no free seed).
BENCH_SEED = 0

def drive_traces() -> Iterator[Tuple[str, Any]]:
    """The pinned drive-throughput grid: ``(label, ProgramTrace)`` pairs.

    Traces span the run-length-compression spectrum: streaming
    (``seq_read``), padded accumulators (``psums`` good), contended
    (``psums`` bad-fs), and a suite model (``streamcluster``).  Labels are
    stable identifiers — the baseline comparison is keyed on them.
    """
    from repro.suites import get_program
    from repro.suites.base import SuiteCase
    from repro.workloads.base import Mode, RunConfig
    from repro.workloads.registry import get_workload

    seq = get_workload("seq_read")
    psums = get_workload("psums")
    yield "seq_read/good/t1", seq.trace(
        RunConfig(threads=1, mode=Mode.GOOD, size=seq.train_sizes[-1]))
    yield "psums/good/t4", psums.trace(
        RunConfig(threads=4, mode=Mode.GOOD, size=psums.train_sizes[-1]))
    yield "psums/bad-fs/t4", psums.trace(
        RunConfig(threads=4, mode=Mode.BAD_FS, size=psums.train_sizes[-1]))
    sc = get_program("streamcluster")
    yield "streamcluster/simsmall", sc.trace(SuiteCase("simsmall", "-O2", 4))


#: Least total time ``_best_of`` spends timing one case.  Fast calls are
#: repeated until the rounds add up to this per timed function, as
#: :meth:`timeit.Timer.autorange` does, so one jittered call cannot decide
#: a sub-millisecond rate.
MIN_TIMED_S = 0.02


def _best_of(fns: Dict[str, Callable[[], Any]],
             repeats: int) -> Dict[str, float]:
    """Fastest call of each function over at least ``repeats`` rounds.

    Each round calls every function once, in order, so a shift in host
    speed during the measurement reaches all of them alike and ratios
    between them (``speedup``) stay sound.  Rounds repeat until they also
    add up to :data:`MIN_TIMED_S` per function.  As in :mod:`timeit`,
    the cyclic GC is disabled around each call, so a collection cannot
    charge the allocations of earlier code to it, and its prior state is
    restored afterwards.
    """
    best = {name: float("inf") for name in fns}
    spent = 0.0
    rounds = 0
    while rounds < max(1, repeats) or spent < MIN_TIMED_S * len(fns):
        for name, fn in fns.items():
            gc_was_enabled = gc.isenabled()
            gc.disable()
            try:
                t0 = time.perf_counter()
                fn()
                elapsed = time.perf_counter() - t0
            finally:
                if gc_was_enabled:
                    gc.enable()
            best[name] = min(best[name], elapsed)
            spent += elapsed
        rounds += 1
    return best


def measure_drive(repeats: int = 3) -> Dict[str, Dict[str, Any]]:
    """Drive throughput of the spec loop and the shipping drive per trace.

    ``ref_accesses_per_s`` times ``fast=False`` (the Python spec loop),
    ``fast_accesses_per_s`` the shipping ``fast=True`` drive, whose path
    (``native``, or ``ref`` without a C compiler) ``strategy`` records
    from :attr:`MulticoreMachine.path_counts`.  Every trace carries its
    :data:`SPEEDUP_FLOORS` entry.
    """
    from repro.coherence.machine import MulticoreMachine, SCALED_WESTMERE

    out: Dict[str, Dict[str, Any]] = {}
    for label, prog in drive_traces():
        with TELEMETRY.span("bench.drive", trace=label):
            n = int(prog.total_accesses)
            machines = {"ref": MulticoreMachine(SCALED_WESTMERE, fast=False),
                        "fast": MulticoreMachine(SCALED_WESTMERE)}
            times = _best_of({name: functools.partial(m.run, prog)
                              for name, m in machines.items()}, repeats)
            paths = machines["fast"].path_counts
        row: Dict[str, Any] = {
            "accesses": n,
            "ref_accesses_per_s": round(n / times["ref"]),
            "fast_accesses_per_s": round(n / times["fast"]),
            "strategy": max(paths, key=paths.__getitem__, default="ref"),
            "speedup": round(times["ref"] / times["fast"], 3),
        }
        if label in SPEEDUP_FLOORS:
            row["speedup_floor"] = SPEEDUP_FLOORS[label]
        out[label] = row
    return out


def measure_routing() -> Dict[str, Any]:
    """Access-weighted drive paths over the 19-program suite grid.

    Runs every suite program's first case once under the shipping
    ``fast=True`` drive and accumulates
    :attr:`MulticoreMachine.path_accesses` — how many *accesses* each drive
    path handled.  Coverage is the share of accesses not on the Python
    spec loop (path ``ref``); ``repro-results gate`` enforces
    :data:`ROUTING_FLOOR` on it as a hard bound.
    """
    from repro.coherence.machine import MulticoreMachine, SCALED_WESTMERE
    from repro.suites import all_programs, get_program

    paths: Dict[str, int] = {}
    programs: Dict[str, Dict[str, int]] = {}
    with TELEMETRY.span("bench.routing"):
        for p in all_programs():
            prog = get_program(p.name).trace(p.cases()[0])
            machine = MulticoreMachine(SCALED_WESTMERE)
            machine.run(prog)
            programs[p.name] = dict(machine.path_accesses)
            for path, n in machine.path_accesses.items():
                paths[path] = paths.get(path, 0) + n
    total = sum(paths.values())
    coverage = (total - paths.get("ref", 0)) / total if total else 0.0
    return {
        "floor": ROUTING_FLOOR,
        "coverage": round(coverage, 6),
        "accesses": total,
        "paths": paths,
        "programs": programs,
    }


def measure_store_workers(tmp_dir: Optional[Path] = None) -> Dict[str, Any]:
    """Drive a persisted trace store through memmap workers; report RSS.

    Writes the contended ``psums`` trace to a binary store, fans the same
    path out over worker processes (each opens its own read-only memmap),
    and records every worker's peak resident set.  The note substantiates
    the zero-copy claim in ``BENCH_simulator.json``: workers share the
    store's OS page-cache pages, so N workers do not cost N trace-sized
    private copies.
    """
    import tempfile

    from repro.parallel import ExecutionEngine
    from repro.trace.store import save_program
    from repro.coherence.machine import SCALED_WESTMERE
    from repro.workloads.base import Mode, RunConfig
    from repro.workloads.registry import get_workload

    w = get_workload("psums")
    prog = w.trace(RunConfig(threads=4, mode=Mode.BAD_FS,
                             size=w.train_sizes[-1]))
    with TELEMETRY.span("bench.store_workers"):
        with tempfile.TemporaryDirectory(dir=tmp_dir) as td:
            path = Path(td) / "psums-bad-fs.rtrc"
            save_program(prog, path)
            store_bytes = path.stat().st_size
            engine = ExecutionEngine(jobs=2, chunksize=1)
            pairs = engine.simulate_stores([path, path], SCALED_WESTMERE)
    rss = [int(r) for _, r in pairs]
    return {
        "case": "psums/bad-fs/t4",
        "workers": len(rss),
        "store_bytes": int(store_bytes),
        "worker_peak_rss_kib": rss,
        "note": "workers open the store as read-only memmaps and share OS "
                "page-cache pages; peak RSS stays flat as workers are added "
                "instead of growing by a private trace copy per process",
    }


def render_speedup_table(payload: Dict[str, Any]) -> str:
    """The drive speedup table (the CI bench job's artifact)."""
    from repro.utils.tables import render_table

    rows = []
    for label, row in sorted((payload.get("drive") or {}).items()):
        rows.append([
            label,
            f"{row.get('accesses', 0):,}",
            f"{row.get('ref_accesses_per_s', 0):,}",
            f"{row.get('fast_accesses_per_s', 0):,}",
            str(row.get("strategy", "-")),
            f"{row.get('speedup', 0):.2f}x",
            (f"{row['speedup_floor']:.2f}x"
             if row.get("speedup_floor") else "-"),
        ])
    return render_table(
        ["case", "accesses", "ref acc/s", "fast acc/s", "fast path",
         "speedup", "floor"],
        rows,
        title="drive throughput (fast=True speedup vs the spec loop)",
    )


def render_routing_report(payload: Dict[str, Any]) -> str:
    """Per-program path-routing histogram (the CI coverage artifact)."""
    from repro.utils.tables import render_table

    routing = payload.get("routing") or {}
    programs = routing.get("programs") or {}
    all_paths = sorted({p for hist in programs.values() for p in hist}
                       | set(routing.get("paths") or {}))
    rows = []
    for name, hist in sorted(programs.items()):
        total = sum(hist.values()) or 1
        off = total - hist.get("ref", 0)
        rows.append([name, f"{total:,}"]
                    + [f"{hist.get(p, 0):,}" for p in all_paths]
                    + [f"{off / total:.2%}"])
    totals = routing.get("paths") or {}
    total = sum(totals.values()) or 1
    rows.append(["TOTAL", f"{total:,}"]
                + [f"{totals.get(p, 0):,}" for p in all_paths]
                + [f"{routing.get('coverage', 0.0):.2%}"])
    out = render_table(
        ["program", "accesses"] + all_paths + ["off-ref"],
        rows,
        title="drive routing coverage (access-weighted)",
    )
    floor = routing.get("floor", ROUTING_FLOOR)
    verdict = ("PASS" if routing.get("coverage", 0.0) >= floor else "FAIL")
    out += (f"\ncoverage {routing.get('coverage', 0.0):.4%} "
            f"vs floor {floor:.0%}: {verdict}")
    return out


def measure_e2e(jobs: Optional[int] = None) -> Dict[str, Any]:  # pragma: no cover - minutes-long
    """End-to-end ``classify_all + verify_all`` wall time (full mode only)."""
    from repro.core.detector import FalseSharingDetector
    from repro.core.lab import Lab
    from repro.experiments.context import PipelineContext
    from repro.parallel import default_jobs

    with TELEMETRY.span("bench.e2e"):
        ctx = PipelineContext(lab=Lab(disk_cache=None),
                              jobs=jobs or default_jobs())
        det = FalseSharingDetector(ctx.lab)
        det.fit(training=ctx.training)
        ctx._detector = det
        t0 = time.perf_counter()
        ctx.classify_all()
        ctx.verify_all()
        seconds = time.perf_counter() - t0
    return {
        "scope": "classify_all + verify_all (cold caches)",
        "parallel_fast_s": round(seconds, 2),
    }


def run_bench(
    smoke: bool = True,
    repeats: Optional[int] = None,
    jobs: Optional[int] = None,
) -> Dict[str, Any]:
    """Run the pinned grid and return the BENCH-compatible payload.

    Telemetry is enabled (and reset) for the duration of the run on the
    process-wide collector, so the instrumented layers — simulator drive,
    execution engine, shadow cache — contribute spans and counters that
    land in the run manifest.  The collector's previous enabled state is
    restored afterwards.
    """
    if repeats is None:
        repeats = 1 if smoke else 3
    was_enabled = TELEMETRY.enabled
    TELEMETRY.enable(reset=True)
    try:
        with TELEMETRY.span("bench", mode="smoke" if smoke else "full"):
            payload: Dict[str, Any] = {
                "bench": "simulator-throughput",
                "mode": "smoke" if smoke else "full",
                "cpus": os.cpu_count(),
                "jobs": jobs or 1,
                "repeats": repeats,
                "drive": measure_drive(repeats=repeats),
                "routing": measure_routing(),
                "store_workers": measure_store_workers(),
                "e2e": {},
            }
            if not smoke:  # pragma: no cover - minutes-long
                payload["e2e"] = measure_e2e(jobs=jobs)
    finally:
        if not was_enabled:
            TELEMETRY.disable()
    return payload


# -------------------------------------------------------------------- CLI


def bench_main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point for ``repro-bench`` (exit 0 ok / 2 error)."""
    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description="Replay the pinned simulator benchmark grid, write a "
                    "BENCH-compatible result + run manifest, and optionally "
                    "ingest it into a repro-results store (gate it there "
                    "with repro-results gate).",
    )
    parser.add_argument("--smoke", action="store_true",
                        help="drive-throughput grid only (seconds, the CI "
                             "configuration); default unless --full")
    parser.add_argument("--full", action="store_true",
                        help="also measure the end-to-end pipeline (minutes)")
    parser.add_argument("--repeats", type=int, default=0,
                        help="timing repeats per case (best-of; default: "
                             "1 smoke, 3 full)")
    parser.add_argument("--input", default="",
                        help="use this existing result JSON instead of "
                             "running the grid")
    parser.add_argument("--output", default="repro-bench.json",
                        help="where to write the result JSON")
    parser.add_argument("--manifest", default="",
                        help="where to write the run manifest "
                             "(default: <output stem>-manifest.json)")
    parser.add_argument("--chrome-trace", default="",
                        help="also write a chrome://tracing / Perfetto "
                             "trace of the run")
    parser.add_argument("--speedup-table", default="",
                        help="write the drive speedup table (text) "
                             "here — uploaded as a CI artifact")
    parser.add_argument("--coverage-report", default="",
                        help="write the drive routing coverage report (text) "
                             "here — uploaded as a CI artifact")
    parser.add_argument("--results-store", default="",
                        help="also ingest the result payload (and manifest, "
                             "in run mode) into this repro-results store")
    parser.add_argument("-j", "--jobs", type=int, default=0,
                        help="worker processes for the full-mode pipeline")
    args = parser.parse_args(argv)

    try:
        if args.input:
            in_path = Path(args.input)
            if not in_path.exists():
                print(f"error: input not found: {in_path}", file=sys.stderr)
                return 2
            payload = json.loads(in_path.read_text())
        else:
            smoke = not args.full
            payload = run_bench(
                smoke=smoke,
                repeats=args.repeats or None,
                jobs=args.jobs or None,
            )
            out_path = Path(args.output)
            out_path.parent.mkdir(parents=True, exist_ok=True)
            out_path.write_text(json.dumps(payload, indent=2) + "\n")
            manifest_path = Path(
                args.manifest
                or out_path.with_name(out_path.stem + "-manifest.json")
            )
            manifest = RunManifest.collect(
                config={
                    "mode": payload["mode"],
                    "repeats": payload["repeats"],
                },
                seed=BENCH_SEED,
                telemetry=TELEMETRY,
            )
            manifest.save(manifest_path)
            if args.chrome_trace:
                export_chrome_trace(TELEMETRY, args.chrome_trace)
            print(f"result:   {out_path}")
            print(f"manifest: {manifest_path}")
            for label, row in payload["drive"].items():
                print(f"  {label:24s} fast {row['fast_accesses_per_s']:>11,} "
                      f"acc/s  (speedup {row['speedup']:.2f}x)")
            routing = payload.get("routing") or {}
            if routing:
                hist = " ".join(
                    f"{p}={n:,}"
                    for p, n in sorted((routing.get("paths") or {}).items()))
                print(f"  routing: {hist}")
                print(f"  routing coverage {routing.get('coverage', 0.0):.4%}"
                      f" (floor {routing.get('floor', ROUTING_FLOOR):.0%})")
            sw = payload.get("store_workers") or {}
            if sw:
                rss = ", ".join(f"{r:,} KiB"
                                for r in sw.get("worker_peak_rss_kib", []))
                print(f"  store workers: {sw.get('workers', 0)} memmap "
                      f"worker(s) over {sw.get('store_bytes', 0):,} B store, "
                      f"peak RSS {rss}")

        if args.results_store:
            from repro.results.store import ResultsStore

            with ResultsStore(args.results_store) as store:
                src = Path(args.input).name if args.input else out_path.name
                outcome = store.ingest(payload, source=src)
                print(f"results:  run #{outcome.run_id} "
                      f"[{outcome.kind}] -> {args.results_store}"
                      + ("" if outcome.fresh else " (deduped)"))
                if not args.input:
                    store.ingest(manifest.to_dict(),
                                 source=manifest_path.name)

        if args.speedup_table:
            table_path = Path(args.speedup_table)
            table_path.parent.mkdir(parents=True, exist_ok=True)
            table_path.write_text(render_speedup_table(payload) + "\n")
            print(f"speedups: {table_path}")

        if args.coverage_report:
            cov_path = Path(args.coverage_report)
            cov_path.parent.mkdir(parents=True, exist_ok=True)
            cov_path.write_text(render_routing_report(payload) + "\n")
            print(f"coverage: {cov_path}")
        return 0
    except (ReproError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(bench_main())
