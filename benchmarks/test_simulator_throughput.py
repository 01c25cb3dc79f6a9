"""Bench: simulator throughput and pipeline wall time.

Checks (a) raw ``MulticoreMachine`` drive throughput in accesses/second
for the Python spec loop and the shipping compiled drive on the pinned
``repro-bench`` trace grid (:func:`repro.telemetry.bench.drive_traces`, the
same cases the CI ``bench`` job replays): every trace must run the
compiled loop and clear its hard ``speedup_floor``; (b) the overhead of
the telemetry hooks in their enabled state, within 2 % of disabled; and
(c) that the pre-optimization configuration of ``classify_all`` +
``verify_all`` (serial, spec drive loop, unfiltered oracle) and the
current one (parallel engine, compiled drive, filtered oracle) give
identical labels and verdicts.  It prints its numbers and writes no
file: ``repro-bench --full`` alone writes ``BENCH_simulator.json``.
"""

from __future__ import annotations

import json
import time

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
from repro.telemetry.bench import drive_traces, measure_drive
from repro.telemetry.core import TELEMETRY
from repro.workloads.base import Mode

def _time(fn, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _telemetry_overhead() -> dict:
    """Fast-path drive time with hooks disabled (default) vs enabled.

    The disabled state must be a no-op: each segment enters the shared
    no-op span.  Even the *enabled* state only records per-segment spans,
    so both must land within 2 % of each other on a full trace.
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
    drive = measure_drive(repeats=3)
    for label, row in drive.items():
        assert row["ref_accesses_per_s"] > 0, label
        assert row["strategy"] == "native", label
        # Every trace carries a hard floor over the spec loop.
        floor = row["speedup_floor"]
        assert row["speedup"] >= floor, (label, row["speedup"], floor)

    telemetry = _telemetry_overhead()

    tree = _mini_tree()
    t_before, labels_before, verdicts_before = _pipeline(
        tree, fast=False, jobs=1)
    t_after, labels_after, verdicts_after = _pipeline(
        tree, fast=True, jobs=default_jobs())
    assert labels_after == labels_before
    assert verdicts_after == verdicts_before
    print(json.dumps({
        "drive": drive,
        "telemetry": telemetry,
        "e2e": {
            "scope": "classify_all + verify_all (19 programs, cold caches, "
                     "mini tree)",
            "serial_reference_s": round(t_before, 2),
            "parallel_fast_s": round(t_after, 2),
            "jobs": default_jobs(),
        },
    }, indent=2))
