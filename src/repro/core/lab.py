"""The experimental context: machine + PMU + caching + interference model.

A :class:`Lab` bundles everything one "testbed" needs: the machine spec, the
latency model, the PMU sampler, and a simulation cache.  Because a repeated
run (``cfg.rep``) performs the identical computation, simulation results are
cached ignoring ``rep`` — only the measurement noise differs between repeats,
exactly as on hardware.

The interference model reproduces a mundane but load-bearing fact from the
paper: some collected instances were garbage (Section 3.1 removed 44 of the
271 sequential instances after manual examination).  On a real machine
single-threaded runs share the socket with daemons and other users; we model
that as an occasional multiplicative inflation of cache-traffic counters.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence, Tuple, Union

from repro.cache import ResultCache, default_path
from repro.coherence.machine import (
    MachineSpec,
    MulticoreMachine,
    SCALED_WESTMERE,
    SimulationResult,
)
from repro.coherence.timing import DEFAULT_LATENCY, LatencyModel
from repro.pmu.counters import EventVector
from repro.pmu.events import Event, TABLE2_EVENTS
from repro.pmu.sampler import PMUSampler
from repro.trace.streams import DEFAULT_CHUNK
from repro.utils.rng import rng_for
from repro.versioning import SIM_VERSION

#: Raw counters inflated when background interference hits a run: everything
#: that scales with cache traffic, not with the program's instructions.
_INTERFERENCE_KEYS = (
    "L1D.REPL",
    "L2_TRANSACTIONS.FILL",
    "L2_LINES_IN.S_STATE",
    "L2_LINES_IN.E_STATE",
    "L2_LINES_IN.ANY",
    "L2_LINES_OUT.DEMAND_CLEAN",
    "L2_LINES_OUT.DEMAND_DIRTY",
    "L2_DATA_RQSTS.DEMAND.I_STATE",
    "L2_RQSTS.LD_MISS",
    "OFFCORE_REQUESTS.DEMAND.READ_DATA",
    "OFFCORE_REQUESTS.ANY",
    "DTLB_MISSES.ANY",
    "LONGEST_LAT_CACHE.REFERENCE",
    "LONGEST_LAT_CACHE.MISS",
    "RESOURCE_STALLS.LOAD",
)


def _admit_sim(value: object) -> Optional[SimulationResult]:
    """A simulation-cache entry is kept only if it is a SimulationResult."""
    return value if isinstance(value, SimulationResult) else None


@dataclass
class Lab:
    """One simulated testbed with a run cache and reproducible noise."""

    spec: MachineSpec = SCALED_WESTMERE
    latency: LatencyModel = DEFAULT_LATENCY
    seed: int = 0
    noisy: bool = True
    chunk: int = DEFAULT_CHUNK
    #: Drive loop, forwarded to :class:`MulticoreMachine` (and to worker
    #: processes by the execution engine): ``True`` drives with the
    #: compiled loop, ``False`` with the Python spec; results are
    #: bit-identical.
    fast: bool = True
    #: "auto" uses a per-spec pickle under the user cache dir
    #: (:func:`repro.cache.default_path`); None disables; a path uses that
    #: file, and a :class:`PipelineContext`'s oracle cache sits beside it.
    #: The file is stamped with ``SIM_VERSION`` (see :mod:`repro.cache`).
    disk_cache: Union[str, Path, None] = "auto"

    def __post_init__(self) -> None:
        self._machine = MulticoreMachine(self.spec, self.latency,
                                         fast=self.fast)
        self._sampler = PMUSampler(seed=self.seed, noisy=self.noisy)
        path = (default_path(f"{self.spec.name}-c{self.chunk}-{SIM_VERSION}.pkl")
                if self.disk_cache == "auto" else self.disk_cache)
        #: The simulation cache, keyed by :meth:`simulation_key`.
        self.sim_cache = ResultCache("sim", (SIM_VERSION,), _admit_sim, path)

    @property
    def machine(self) -> MulticoreMachine:
        """The underlying simulator (shared cache geometry and latencies)."""
        return self._machine

    @property
    def sampler(self) -> PMUSampler:
        """The PMU sampler used for measurements."""
        return self._sampler

    def flush(self) -> None:
        """Persist the simulation cache to disk (no-op when disabled)."""
        self.sim_cache.flush()

    # ---------------------------------------------------------------- runs

    def simulation_key(self, workload, cfg) -> Tuple:
        """The run-cache key for one configuration (rep index excluded)."""
        return (workload.name,) + tuple(workload.cache_key(cfg)) + (self.chunk,)

    def simulate(self, workload, cfg) -> SimulationResult:
        """Run (or fetch from cache) the simulation for one configuration.

        ``workload`` is anything with ``name``, ``trace(cfg)`` and
        ``cache_key(cfg)`` — mini-programs, suite models and persisted
        traces (:data:`repro.trace.store.STORED`) alike.  The rep index is
        excluded from the cache key: repeats re-measure, they do not
        re-execute different computations.
        """
        return self.sim_cache.get_or_compute(
            self.simulation_key(workload, cfg),
            lambda: self._machine.run(workload.trace(cfg), chunk=self.chunk))

    def measure(
        self,
        workload,
        cfg,
        events: Optional[Sequence[Event]] = None,
        interference_p: float = 0.0,
    ) -> EventVector:
        """Simulate + sample the PMU for one configuration.

        ``interference_p`` is the probability this particular (run, rep)
        was polluted by background activity.
        """
        events = list(events) if events is not None else list(TABLE2_EVENTS)
        result = self.simulate(workload, cfg)
        run_id = cfg.run_id()
        if interference_p > 0.0:
            result = self._maybe_interfere(
                result, workload.name, run_id, interference_p
            )
        vec = self._sampler.measure(result, events, run_id=run_id)
        vec.meta.update(result.meta)
        vec.meta["seconds"] = result.seconds
        vec.meta["run_id"] = run_id
        return vec

    def cache_size(self) -> int:
        return len(self.sim_cache)

    def clear_cache(self) -> None:
        self.sim_cache.clear()

    # ---------------------------------------------------------- interference

    def _maybe_interfere(
        self,
        result: SimulationResult,
        name: str,
        run_id: str,
        p: float,
    ) -> SimulationResult:
        rng = rng_for("interference", self.seed, name, run_id)
        if rng.random() >= p:
            return result
        factor = float(rng.uniform(2.5, 5.0))
        counts = dict(result.counts)
        for key in _INTERFERENCE_KEYS:
            if key in counts:
                counts[key] *= factor
        return SimulationResult(
            counts=counts,
            cycles_per_core=[c * (1 + 0.2 * (factor - 1))
                             for c in result.cycles_per_core],
            instructions_per_core=list(result.instructions_per_core),
            seconds=result.seconds * (1 + 0.2 * (factor - 1)),
            nthreads=result.nthreads,
            spec=result.spec,
            name=result.name,
            meta={**result.meta, "interfered": True},
        )
