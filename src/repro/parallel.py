"""Parallel case-grid execution.

Every expensive artifact in the pipeline — the Table 3 training set, the
Tables 5-10 suite classification grids, the shadow-memory oracle runs — is a
*grid* of independent (workload, configuration) cases.  Simulating one case
shares no state with any other: traces are generated from
:func:`repro.utils.rng.rng_for` (a blake2b-keyed stream, identical in every
process), and measurement noise is drawn in the parent from the same keyed
streams.  That makes the grid embarrassingly parallel *and* lets us demand a
strong invariant:

    parallel execution is **bit-identical** to serial execution.

The :class:`ExecutionEngine` realizes the invariant by construction: worker
processes only *simulate* (the deterministic part) and ship
:class:`~repro.coherence.machine.SimulationResult` objects back; the parent
installs them in the :class:`~repro.core.lab.Lab` run cache and then drives
the unchanged serial loop, which consumes cache hits in the original case
order.  Noise sampling, screening, classification — everything order- or
RNG-sensitive — still happens serially in the parent, so artifacts cannot
depend on worker scheduling.

``jobs=1`` (or a single-case grid) never spawns processes; ``jobs=None``
uses :func:`default_jobs` (``os.cpu_count()``, overridable by the CLI's
``--jobs``).
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

from repro.errors import ReproError
from repro.telemetry.core import TELEMETRY

__all__ = [
    "ExecutionEngine",
    "default_jobs",
    "set_default_jobs",
    "resolve_target",
]

_DEFAULT_JOBS: Optional[int] = None


def default_jobs() -> int:
    """Worker count used when an engine is built with ``jobs=None``."""
    if _DEFAULT_JOBS is not None:
        return _DEFAULT_JOBS
    return os.cpu_count() or 1


def set_default_jobs(jobs: Optional[int]) -> None:
    """Set the process-wide default worker count (``None`` restores auto)."""
    global _DEFAULT_JOBS
    if jobs is not None and jobs < 1:
        raise ReproError("jobs must be >= 1")
    _DEFAULT_JOBS = jobs


def resolve_target(name: str):
    """A mini-program or suite program by registry name (workers use this)."""
    from repro.errors import WorkloadError
    from repro.workloads.registry import get_workload

    try:
        return get_workload(name)
    except WorkloadError:
        from repro.suites import get_program

        return get_program(name)


# --------------------------------------------------------------------- tasks
#
# Worker entry points must be module-level functions (pickled by reference).
# Tasks are self-contained tuples: workloads travel as registry names, specs
# as the frozen dataclasses they already are.


def _simulate_task(task: Tuple) -> object:
    """Worker: run one simulation; returns the SimulationResult."""
    name, cfg, spec, latency, prefetch, fast, chunk = task
    from repro.coherence.machine import MulticoreMachine

    workload = resolve_target(name)
    machine = MulticoreMachine(spec, latency, prefetch=prefetch, fast=fast)
    return machine.run(workload.trace(cfg), chunk=chunk)


def _simulate_store_task(task: Tuple) -> Tuple[object, int]:
    """Worker: memmap one program store locally and simulate it.

    The task carries a *path* plus machine parameters — never trace bytes.
    The worker reconstructs zero-copy :class:`ThreadTrace` views from the
    store header's per-thread ``(offset, length)`` spans, so every process
    reads the same OS page-cache pages instead of holding a pickled private
    copy of the trace.  Returns ``(SimulationResult, peak_rss_kib)``: the
    worker's max resident set, reported so callers (the bench harness) can
    document that N workers over a GB-scale trace do not cost N trace-sized
    residencies.
    """
    path, spec, latency, prefetch, fast, chunk = task
    import resource

    from repro.coherence.machine import MulticoreMachine
    from repro.trace.store import open_program

    program = open_program(path)
    machine = MulticoreMachine(spec, latency, prefetch=prefetch, fast=fast)
    result = machine.run(program, chunk=chunk)
    rss_kib = int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    return result, rss_kib


def _shadow_task(task: Tuple) -> object:
    """Worker: run the shadow-memory oracle on one case; its ShadowReport."""
    name, case, chunk, max_threads, fast, track_lines = task
    from repro.baselines.shadow import ShadowMemoryDetector

    program = resolve_target(name)
    return ShadowMemoryDetector(max_threads=max_threads, fast=fast,
                                track_lines=track_lines).run(
        program.trace(case), chunk=chunk)


def _timed_call(payload: Tuple) -> Tuple[float, object]:
    """Worker wrapper: ``(fn, task) -> (exec_seconds, fn(task))``.

    Every dispatch goes through it, so the parent can account per-case
    execution time and worker utilization; ``fn`` is a module-level task
    function, so the pair pickles by reference.
    """
    fn, task = payload
    t0 = time.perf_counter()
    out = fn(task)
    return time.perf_counter() - t0, out


# -------------------------------------------------------------------- engine


class ExecutionEngine:
    """Fans a list of independent tasks out over worker processes.

    Results always come back in task order (``ProcessPoolExecutor.map``
    preserves input order regardless of completion order), and dispatch is
    chunked so thousands of small cases do not pay per-task IPC overhead:
    each worker receives ``max(1, n_tasks // (workers * 4))`` tasks per
    round trip by default, or exactly ``chunksize`` when one is given
    (coarser chunks suit grids of many cheap cases, ``chunksize=1`` suits
    a few expensive ones).
    """

    def __init__(self, jobs: Optional[int] = None,
                 chunksize: Optional[int] = None) -> None:
        if jobs is not None and jobs < 1:
            raise ReproError("jobs must be >= 1")
        if chunksize is not None and chunksize < 1:
            raise ReproError("chunksize must be >= 1")
        self.jobs = int(jobs) if jobs is not None else default_jobs()
        self.chunksize = int(chunksize) if chunksize is not None else None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ExecutionEngine(jobs={self.jobs}, chunksize={self.chunksize})"

    def _chunksize(self, ntasks: int, workers: int) -> int:
        """Tasks per worker round trip (explicit override or the 4x rule)."""
        if self.chunksize is not None:
            return self.chunksize
        return max(1, ntasks // (workers * 4))

    def map(self, fn: Callable, tasks: Iterable) -> List:
        """``[fn(t) for t in tasks]``, possibly across processes, in order.

        Workers ship each case's execution seconds back alongside its
        result; with telemetry enabled the whole call is recorded as an
        ``engine.map`` span with queue/exec statistics and worker
        utilization.
        """
        tasks = list(tasks)
        serial = self.jobs <= 1 or len(tasks) <= 1
        workers = 1 if serial else min(self.jobs, len(tasks))
        chunksize = 1 if serial else self._chunksize(len(tasks), workers)
        payloads = [(fn, t) for t in tasks]
        tel = TELEMETRY
        with tel.span("engine.map", fn=getattr(fn, "__name__", str(fn)),
                      tasks=len(tasks), workers=workers,
                      chunksize=chunksize) as sp:
            t0 = time.perf_counter()
            if serial:
                timed = [_timed_call(p) for p in payloads]
            else:
                with ProcessPoolExecutor(max_workers=workers) as pool:
                    timed = list(pool.map(_timed_call, payloads,
                                          chunksize=chunksize))
            wall = time.perf_counter() - t0
        if tel.enabled:
            busy = sum(s for s, _ in timed)
            util = busy / (workers * wall) if wall > 0 else 0.0
            if timed:
                secs = [s for s, _ in timed]
                sp.set(wall_s=round(wall, 6), busy_s=round(busy, 6),
                       utilization=round(util, 4),
                       task_min_s=round(min(secs), 6),
                       task_max_s=round(max(secs), 6),
                       task_mean_s=round(busy / len(secs), 6))
            tel.count("engine.maps")
            tel.count("engine.tasks", len(tasks))
            tel.count("engine.task_seconds", busy)
            tel.gauge("engine.worker_utilization", round(util, 4))
        return [r for _, r in timed]

    # ------------------------------------------------------------- prefetch

    def prefetch_simulations(self, lab, pairs: Sequence[Tuple]) -> int:
        """Simulate missing ``(workload, cfg)`` cases in parallel.

        Results are installed in ``lab``'s run cache; the caller then runs
        its normal serial loop, which finds every case already simulated.
        Cases whose workload is not resolvable by registry name (a caller
        passing some ad-hoc object) are skipped and simply get simulated
        serially by that loop.  Returns the number of cases dispatched.
        """
        if self.jobs <= 1:
            return 0
        tasks = {}
        for workload, cfg in pairs:
            try:
                if resolve_target(workload.name) is not workload:
                    continue
            except ReproError:
                continue
            tasks.setdefault(lab.simulation_key(workload, cfg),
                             (workload.name, cfg, lab.spec, lab.latency,
                              lab.prefetch, lab.fast, lab.chunk))
        keys = lab.sim_cache.missing(tasks)
        if len(keys) <= 1:
            return 0
        lab.sim_cache.update(
            zip(keys, self.map(_simulate_task, [tasks[k] for k in keys])))
        lab.flush()
        return len(keys)

    def simulate_stores(
        self,
        paths: Sequence,
        spec,
        latency=None,
        prefetch: bool = True,
        fast: "bool | str" = True,
        chunk: Optional[int] = None,
    ) -> List[Tuple[object, int]]:
        """Simulate persisted program stores, one worker memmap per path.

        Workers receive ``(path, machine params)`` handles only; each opens
        the store read-only and drives it straight off the memmap (the
        windowed drive never materializes the whole interleaved order).
        Returns ``(SimulationResult, worker_peak_rss_kib)`` pairs in input
        order — the RSS figures substantiate the zero-copy claim in bench
        reports.
        """
        from repro.coherence.timing import DEFAULT_LATENCY
        from repro.trace.streams import DEFAULT_CHUNK

        latency = latency if latency is not None else DEFAULT_LATENCY
        chunk = int(chunk) if chunk is not None else DEFAULT_CHUNK
        tasks = [(str(p), spec, latency, prefetch, fast, chunk)
                 for p in paths]
        return self.map(_simulate_store_task, tasks)

    def shadow_batch(
        self,
        cases: Sequence[Tuple],
        chunk: int,
        max_threads: int,
        fast: bool = True,
        track_lines: bool = False,
    ) -> List:
        """Oracle :class:`~repro.baselines.shadow.ShadowReport` objects for
        ``(program_name, case)`` pairs, in order.

        ``fast`` toggles the oracle's numpy prefilter and must be a bool;
        ``track_lines`` collects each report's ``per_line`` attribution.
        """
        if not isinstance(fast, bool):
            raise ReproError(f"fast must be a bool, got {fast!r}")
        tasks = [(name, case, chunk, max_threads, fast, track_lines)
                 for name, case in cases]
        return self.map(_shadow_task, tasks)
