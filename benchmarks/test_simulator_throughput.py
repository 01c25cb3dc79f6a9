"""Bench: simulator throughput and pipeline wall time, tracked over PRs.

Measures (a) raw ``MulticoreMachine`` drive throughput in accesses/second
for the Python spec loop and the shipping compiled drive on the pinned
``repro-bench`` trace grid (:func:`repro.telemetry.bench.drive_traces`, the
same cases the CI ``bench`` job replays), with a hard ``speedup_floor``
check on every trace, (b) the overhead of the telemetry hooks
in both their disabled (default) and enabled states, and (c) end-to-end
``classify_all`` + ``verify_all`` wall time for the pre-optimization
configuration (serial, spec drive loop, unfiltered oracle) against the
current one (parallel engine, compiled drive, filtered oracle).
Results land in ``BENCH_simulator.json`` at the repo root so future PRs
can compare against the trajectory — CI ingests it with a fresh
``repro-bench`` result into a two-run ``repro-results`` store and gates
that.

Both configurations produce bit-identical labels and counts (asserted
here), so the timings compare two implementations of the same function.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from repro.baselines.shadow import ShadowMemoryDetector
from repro.coherence.machine import MulticoreMachine, SCALED_WESTMERE
from repro.core.detector import FalseSharingDetector
from repro.core.lab import Lab
from repro.core.training import (
    PlanRow,
    ScreeningReport,
    TrainingData,
    collect_plan,
)
from repro.experiments.context import PipelineContext
from repro.parallel import default_jobs
from repro.telemetry.bench import (
    ROUTING_FLOOR,
    drive_traces,
    measure_drive,
    measure_routing,
    measure_store_workers,
)
from repro.telemetry.core import TELEMETRY
from repro.workloads.base import Mode

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_simulator.json"


def _time(fn, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _telemetry_overhead() -> dict:
    """Fast-path drive time with hooks disabled (default) vs enabled.

    The disabled state must be a no-op: its only cost is one attribute
    check per segment.  Even the *enabled* state only records per-segment
    spans, so both must land within 2 % of each other on a full trace.
    """
    label, prog = next(iter(drive_traces()))
    machine = MulticoreMachine(SCALED_WESTMERE, fast=True)
    assert not TELEMETRY.enabled  # disabled is the default
    t_off = _time(lambda: machine.run(prog), repeats=5)
    TELEMETRY.enable(reset=True)
    try:
        t_on = _time(lambda: machine.run(prog), repeats=5)
    finally:
        TELEMETRY.disable()
    overhead = t_on / t_off - 1.0
    # Enabled does strictly more work than disabled, so bounding the
    # enabled overhead under 2% bounds the disabled (default) hooks too.
    assert t_on <= t_off * 1.02, (
        f"telemetry overhead {overhead:.1%} on {label} exceeds 2%"
    )
    return {
        "trace": label,
        "disabled_s": round(t_off, 4),
        "enabled_s": round(t_on, 4),
        "enabled_overhead": round(overhead, 4),
    }


def _mini_tree():
    """A quickly-trained tree; classification cost, not quality, matters."""
    plan = [
        PlanRow("psums", Mode.GOOD, (1_500, 3_000), (3, 6), ("random",), 2),
        PlanRow("psums", Mode.BAD_FS, (1_500, 3_000), (3, 6), ("random",), 2),
        PlanRow("seq_read", Mode.BAD_MA, (32_768,), (1,),
                ("random", "stride8"), 1),
    ]
    lab = Lab(disk_cache=None)
    inst = collect_plan(lab, plan, "A")
    td = TrainingData(inst, [], inst, [],
                      ScreeningReport(inst, [], {}),
                      ScreeningReport([], [], {}))
    det = FalseSharingDetector(lab)
    det.fit(training=td)
    return det.classifier


def _pipeline(tree, fast: bool, jobs: int):
    ctx = PipelineContext(lab=Lab(disk_cache=None, fast=fast), jobs=jobs)
    ctx.shadow = ShadowMemoryDetector(fast=fast)
    det = FalseSharingDetector(ctx.lab)
    det.classifier = tree
    ctx._detector = det
    t0 = time.perf_counter()
    classified = ctx.classify_all()
    verified = ctx.verify_all()
    seconds = time.perf_counter() - t0
    labels = {name: dict(sorted((str(c), lbl) for c, lbl in p.labels.items()))
              for name, p in classified.items()}
    verdicts = {name: (v.actual_fs, v.detected_fs, v.cases)
                for name, v in verified.items()}
    return seconds, labels, verdicts


def test_simulator_throughput():
    payload = {
        "bench": "simulator-throughput",
        "cpus": os.cpu_count(),
        "jobs": default_jobs(),
        "drive": measure_drive(repeats=3),
        "routing": measure_routing(),
        "store_workers": measure_store_workers(),
        "telemetry": _telemetry_overhead(),
        "e2e": {},
    }

    # The routing-coverage floor is hard: ≥95% of the 19-program grid's
    # accesses must stay off the Python spec loop.
    routing = payload["routing"]
    assert routing["coverage"] >= ROUTING_FLOOR, routing
    assert payload["store_workers"]["worker_peak_rss_kib"]

    for label, row in payload["drive"].items():
        assert row["ref_accesses_per_s"] > 0, label
        assert row["strategy"] == "native", label
        # Every trace carries a hard floor over the spec loop.
        floor = row["speedup_floor"]
        assert row["speedup"] >= floor, (label, row["speedup"], floor)

    tree = _mini_tree()
    t_before, labels_before, verdicts_before = _pipeline(
        tree, fast=False, jobs=1)
    t_after, labels_after, verdicts_after = _pipeline(
        tree, fast=True, jobs=default_jobs())
    assert labels_after == labels_before
    assert verdicts_after == verdicts_before
    payload["e2e"] = {
        "scope": "classify_all + verify_all (19 programs, cold caches)",
        "serial_reference_s": round(t_before, 2),
        "parallel_fast_s": round(t_after, 2),
        "speedup": round(t_before / t_after, 3),
    }

    BENCH_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(json.dumps(payload["e2e"], indent=2))
