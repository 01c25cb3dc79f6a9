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

The :class:`ExecutionEngine` realizes the invariant by construction: one
*case task* (:func:`case_task`) builds a ``(target, case)`` trace once and
runs the deterministic halves the caches lack — simulation, shadow oracle,
or both — and the parent installs each half in its cache, then drives the
unchanged serial loop, which consumes cache hits in case order.  Noise
sampling, screening, classification — everything order- or RNG-sensitive —
still happens serially in the parent, so artifacts cannot depend on worker
scheduling.  The prefetch runs at every job count (``jobs=1`` runs the same
case tasks in-process); ``jobs=None`` uses :func:`default_jobs`
(``os.cpu_count()``, overridable by the CLI's ``--jobs``).
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from typing import (Callable, Dict, Hashable, Iterable, List, Optional,
                    Tuple)

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
    """A mini-program, suite program or :data:`repro.trace.store.STORED` by
    name (workers use this)."""
    from repro.errors import WorkloadError
    from repro.trace.store import STORED
    from repro.workloads.registry import get_workload

    if name == STORED.name:
        return STORED
    try:
        return get_workload(name)
    except WorkloadError:
        from repro.suites import get_program

        return get_program(name)


def _registered(target) -> bool:
    """Whether ``target`` is the registry's object of its name (so a worker
    rebuilds it from the name alone)."""
    try:
        return resolve_target(target.name) is target
    except ReproError:
        return False


def shadow_key(target, case) -> Tuple[Hashable, ...]:
    """The oracle-cache key of one ``(target, case)`` pair."""
    return (target.name,) + tuple(target.cache_key(case))


# --------------------------------------------------------------------- tasks
#
# Worker entry points must be module-level functions (pickled by reference).
# Tasks are self-contained tuples: targets travel as names (a stored trace
# as STORED's name and a path-and-digest case, never as trace bytes), specs
# as the frozen dataclasses they already are.


def case_task(task: Tuple) -> Tuple[object, object]:
    """Worker: build one ``(target, case)`` trace once and run the halves
    asked for on it; returns ``(SimulationResult | None, ShadowReport |
    None)``.

    A task is ``(name, case, chunk, machine, oracle_fast)``: ``machine`` is
    the simulation's ``(spec, latency, fast)`` and ``oracle_fast``
    the shadow oracle's ``fast``, each None when that half is not wanted.
    """
    name, case, chunk, machine, oracle_fast = task
    from repro.baselines.shadow import ShadowMemoryDetector
    from repro.coherence.machine import MulticoreMachine

    trace = resolve_target(name).trace(case)
    result = report = None
    if machine is not None:
        spec, latency, fast = machine
        result = MulticoreMachine(spec, latency, fast=fast).run(trace,
                                                                chunk=chunk)
    if oracle_fast is not None:
        oracle = ShadowMemoryDetector(fast=oracle_fast)
        with TELEMETRY.span("shadow.run", program=name,
                            case=case.run_id()) as sp:
            report = oracle.run(trace, chunk=chunk)
            sp.set(path=oracle.path)
    return result, report


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

    def prefetch(self, lab, pairs: Iterable[Tuple],
                 shadowed: Iterable[Tuple] = (), shadow_cache=None,
                 oracle=None) -> int:
        """Compute what the caches lack of ``(target, case)`` pairs.

        ``pairs`` want a simulation in ``lab.sim_cache``, ``shadowed``
        pairs the ``oracle``'s :class:`ShadowReport` in ``shadow_cache``.
        Each pair missing either is one :func:`case_task`, which builds its
        trace once and runs only the missing halves; each half is installed
        in its cache under its usual key and flushed, so the caller's
        serial loop reads cache hits.  Targets that :func:`resolve_target`
        does not return by name (some ad-hoc object) are skipped: that
        loop computes them.  Returns the number of case tasks run.
        """
        halves = [(lab.sim_cache, lab.simulation_key, pairs),
                  (shadow_cache, shadow_key, shadowed)]
        todo: Dict[Tuple, list] = {}  # shadow key -> [target, case, keys]
        for half, (cache, key, group) in enumerate(halves):
            for t, c in group:
                if _registered(t) and cache.missing([key(t, c)]):
                    todo.setdefault(shadow_key(t, c),
                                    [t, c, None, None])[2 + half] = key(t, c)
        if not todo:
            return 0
        rows = list(todo.values())
        machine = (lab.spec, lab.latency, lab.fast)
        results = self.map(case_task, [
            (t.name, c, lab.chunk, None if sim is None else machine,
             None if orc is None else oracle.fast)
            for t, c, sim, orc in rows])
        for half, (cache, _, _) in enumerate(halves):
            done = [(row[2 + half], out[half])
                    for row, out in zip(rows, results) if row[2 + half]]
            if done:
                cache.update(done)
                cache.flush()
                if half:
                    TELEMETRY.count("shadow.prefetch.dispatched", len(done))
        return len(rows)
