"""Disabled telemetry is a true no-op; enabled telemetry observes faithfully.

The observability layer's contract (docs/OBSERVABILITY.md) has two halves:

* **Disabled (the default)**: every instrumented code path produces
  bit-identical outputs with hooks on or off, and the hooks cost no more
  than one attribute check per *segment* (never per access).
* **Enabled**: the spans and counters recorded by the simulator drive, the
  execution engine, the suite trace generators, the shadow-oracle cache
  and the experiment runner describe what actually happened.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.baselines.shadow import ShadowMemoryDetector
from repro.coherence.machine import SCALED_WESTMERE, MulticoreMachine
from repro.core.lab import Lab
from repro.experiments.base import ExperimentResult, run_experiment
from repro.experiments.context import PipelineContext
from repro.parallel import ExecutionEngine
from repro.suites import get_program
from repro.suites.base import SuiteCase, SuiteProgram
from repro.telemetry.core import TELEMETRY
from repro.trace.access import ProgramTrace, ThreadTrace
from repro.workloads.base import Mode, RunConfig
from repro.workloads.registry import get_workload


@pytest.fixture(autouse=True)
def _global_telemetry_off():
    """Every test starts and ends with the global singleton disabled."""
    TELEMETRY.disable()
    TELEMETRY.reset()
    yield
    TELEMETRY.disable()
    TELEMETRY.reset()


def _psums_trace(size: int = 3_000) -> ProgramTrace:
    w = get_workload("psums")
    return w.trace(RunConfig(threads=4, mode=Mode.BAD_FS, size=size))


# --------------------------------------------------------- disabled = no-op


def test_simulator_results_identical_disabled_vs_enabled():
    prog = _psums_trace()
    machine = MulticoreMachine(SCALED_WESTMERE, fast=True)
    assert not TELEMETRY.enabled
    off = machine.run(prog)
    TELEMETRY.enable(reset=True)
    on = machine.run(prog)
    assert on.counts == off.counts
    assert on.cycles_per_core == off.cycles_per_core
    assert on.instructions_per_core == off.instructions_per_core


def test_engine_results_identical_disabled_vs_enabled():
    engine = ExecutionEngine(jobs=1)
    lab = Lab(disk_cache=None)
    cases = [RunConfig(threads=t, mode=Mode.GOOD, size=1_500) for t in (2, 3)]
    pairs = [(get_workload("psums"), c) for c in cases]
    engine.prefetch_simulations(lab, pairs)
    off = [lab.simulate(w, c).counts for w, c in pairs]

    TELEMETRY.enable(reset=True)
    lab2 = Lab(disk_cache=None)
    engine.prefetch_simulations(lab2, pairs)
    on = [lab2.simulate(w, c).counts for w, c in pairs]
    assert on == off


def test_disabled_hooks_negligible_on_fast_drive():
    # The strict <2% budget is enforced by benchmarks/ (repeats, pinned
    # grid); this tier-1 guard catches gross regressions — e.g. a hook
    # accidentally moved into the per-access loop costs integer multiples,
    # not percent.
    prog = _psums_trace(size=12_000)
    machine = MulticoreMachine(SCALED_WESTMERE, fast=True)
    machine.run(prog)  # warm caches/JIT'd numpy paths

    def best_of(n: int = 5) -> float:
        best = float("inf")
        for _ in range(n):
            t0 = time.perf_counter()
            machine.run(prog)
            best = min(best, time.perf_counter() - t0)
        return best

    assert not TELEMETRY.enabled
    t_off = best_of()
    TELEMETRY.enable(reset=True)
    t_on = best_of()
    TELEMETRY.disable()
    # Enabled does strictly more work than disabled, so this also bounds
    # the disabled-default overhead.  Generous tolerance: CI timers flake.
    assert t_on <= t_off * 1.5, (t_off, t_on)


# ------------------------------------------------------------- sim.drive


def test_drive_spans_and_counters_describe_the_run():
    prog = _psums_trace()
    TELEMETRY.enable(reset=True)
    MulticoreMachine(SCALED_WESTMERE, fast=True).run(prog)
    spans = [s for s in TELEMETRY.spans if s.name == "sim.drive"]
    assert spans
    for sp in spans:
        assert sp.attrs["path"] in ("native", "ref")
        assert sp.attrs["accesses"] > 0
        assert sp.attrs["accesses_per_s"] > 0
    c = TELEMETRY.counters
    assert c["sim.drive.segments"] == len(spans)
    assert c["sim.drive.accesses"] == sum(s.attrs["accesses"] for s in spans)
    path_total = sum(v for k, v in c.items()
                     if k.startswith("sim.drive.path."))
    assert path_total == len(spans)
    assert TELEMETRY.gauges["sim.drive.accesses_per_s"] > 0


def test_drive_reference_machine_records_ref_path():
    TELEMETRY.enable(reset=True)
    MulticoreMachine(SCALED_WESTMERE, fast=False).run(_psums_trace())
    c = TELEMETRY.counters
    assert c["sim.drive.path.ref"] == c["sim.drive.segments"]
    assert "sim.drive.path.native" not in c


# ------------------------------------------------------------ engine.map


def test_engine_map_instrumented_serial_matches_plain():
    engine = ExecutionEngine(jobs=1)
    tasks = [1, 2, 3, 4]
    plain = engine.map(lambda x: x * x, tasks)
    TELEMETRY.enable(reset=True)
    instrumented = engine.map(lambda x: x * x, tasks)
    assert instrumented == plain == [1, 4, 9, 16]
    spans = [s for s in TELEMETRY.spans if s.name == "engine.map"]
    assert len(spans) == 1
    sp = spans[0]
    assert sp.attrs["tasks"] == 4 and sp.attrs["workers"] == 1
    assert sp.attrs["wall_s"] >= sp.attrs["busy_s"] >= 0
    assert sp.attrs["task_min_s"] <= sp.attrs["task_mean_s"] <= sp.attrs["task_max_s"]
    c = TELEMETRY.counters
    assert c["engine.maps"] == 1 and c["engine.tasks"] == 4
    assert 0.0 <= TELEMETRY.gauges["engine.worker_utilization"] <= 1.0


def test_engine_prefetch_instrumented_matches_serial_results():
    # The bit-identical-to-serial invariant must survive instrumentation
    # end to end, through real worker processes.
    cases = [RunConfig(threads=t, mode=m, size=1_500)
             for t in (2, 3) for m in (Mode.GOOD, Mode.BAD_FS)]
    pairs = [(get_workload("psums"), c) for c in cases]

    lab_serial = Lab(disk_cache=None)
    for w, c in pairs:
        lab_serial.simulate(w, c)
    serial = [lab_serial.simulate(w, c).counts for w, c in pairs]

    TELEMETRY.enable(reset=True)
    lab_par = Lab(disk_cache=None)
    ExecutionEngine(jobs=2).prefetch_simulations(lab_par, pairs)
    parallel = [lab_par.simulate(w, c).counts for w, c in pairs]
    assert parallel == serial
    spans = [s for s in TELEMETRY.spans if s.name == "engine.map"]
    assert spans and spans[0].attrs["workers"] == 2
    assert TELEMETRY.counters["engine.tasks"] == len(pairs)


# ----------------------------------------------------------- suites.trace


def test_suite_trace_span_counts_accesses():
    prog = get_program("streamcluster")
    case = prog.cases()[0]
    TELEMETRY.enable(reset=True)
    trace = prog.trace(case)
    spans = [s for s in TELEMETRY.spans if s.name == "suites.trace"]
    assert len(spans) == 1
    sp = spans[0]
    assert sp.attrs["program"] == "streamcluster"
    assert sp.attrs["case"] == case.run_id()
    assert sp.attrs["accesses"] == sum(t.n_accesses for t in trace.threads)
    assert TELEMETRY.counters["suites.traces"] == 1


# ----------------------------------------------------------- shadow cache


class _TinyProgram(SuiteProgram):
    """Smallest possible suite program: keeps the oracle run sub-second."""

    name = "zz-tiny-telemetry"
    inputs = ("small",)
    opts = ("-O2",)
    threads = (2,)

    def _generate(self, case):
        rng = self.rng(case)
        out = []
        for t in range(case.threads):
            addrs = rng.integers(0, 64, size=256).astype(np.int64) * 8
            writes = rng.random(256) < 0.3
            out.append(ThreadTrace(addrs, writes))
        return out


def test_shadow_cache_miss_then_hit_counters():
    ctx = PipelineContext(lab=Lab(disk_cache=None))
    ctx.shadow = ShadowMemoryDetector()
    prog = _TinyProgram()
    case = SuiteCase("small", "-O2", 2)
    TELEMETRY.enable(reset=True)
    first = ctx.shadow_report(prog, case)
    second = ctx.shadow_report(prog, case)
    assert (first.fs_misses, first.ts_misses, first.cold_misses) == (
        second.fs_misses, second.ts_misses, second.cold_misses)
    c = TELEMETRY.counters
    assert c["shadow.cache.miss"] == 1
    assert c["shadow.cache.hit"] == 1
    runs = [s for s in TELEMETRY.spans if s.name == "shadow.run"]
    assert len(runs) == 1  # the hit never re-ran the oracle
    assert runs[0].attrs["program"] == prog.name


# ------------------------------------------------------------ experiments


def test_run_experiment_wrapped_in_span(monkeypatch):
    from repro.experiments import base as exp_base

    def probe(ctx):
        return ExperimentResult("zz-probe", "telemetry probe", "ok")

    monkeypatch.setitem(exp_base._REGISTRY, "zz-probe", probe)
    monkeypatch.setitem(exp_base._TITLES, "zz-probe", "telemetry probe")
    TELEMETRY.enable(reset=True)
    result = run_experiment("zz-probe", ctx=object())
    assert result.text == "ok"
    spans = [s for s in TELEMETRY.spans if s.name == "experiment.zz-probe"]
    assert len(spans) == 1
    assert spans[0].attrs["title"] == "telemetry probe"
    assert TELEMETRY.counters["experiments.runs"] == 1
