"""Reading events off the simulated PMU: multiplexing, noise, overhead.

Westmere exposes 4 fully-programmable counters per core.  Measuring the 16
Table 2 events therefore requires time-multiplexing: each event is live for
a fraction of the run and its count is extrapolated, adding sampling error
on top of intrinsic counter noise.  The model here reproduces the properties
the paper leans on:

* counting overhead is tiny (< 2 % even with full rotation) — the paper's
  headline practicality claim;
* noisy counters (L1D loads/stores) have large relative error;
* the erratic ``MEM_UNCORE_RETIRED.OTHER_CORE_L2_HITM`` counter's value is
  dominated by unrelated load traffic, so it fails the 2x selection test.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, Optional, Sequence

import numpy as np

from repro.errors import PMUError
from repro.pmu.counters import EventVector
from repro.pmu.events import Event
from repro.utils.rng import rng_for

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.coherence.machine import SimulationResult

#: Programmable general-purpose counters per core on Westmere.
PROGRAMMABLE_COUNTERS = 4

#: Fixed counters (instructions, cycles, ref-cycles) that never multiplex.
_FIXED_KEYS = {"INST_RETIRED.ANY", "CPU_CLK_UNHALTED.CORE"}

#: Relative extra noise per multiplexing rotation group beyond the first.
_MUX_NOISE = 0.015

#: Per-event-group overhead fraction of run time (counter rotation + reads).
_GROUP_OVERHEAD = 0.0016
_BASE_OVERHEAD = 0.0018


class PMUSampler:
    """Samples event counts from a finished simulation run."""

    def __init__(
        self,
        counters: int = PROGRAMMABLE_COUNTERS,
        seed: int = 0,
        noisy: bool = True,
    ) -> None:
        if counters <= 0:
            raise PMUError("need at least one programmable counter")
        self.counters = counters
        self.seed = seed
        self.noisy = noisy

    def measure(
        self,
        result: SimulationResult,
        events: Sequence[Event],
        run_id: Optional[str] = None,
    ) -> EventVector:
        """Read ``events`` for one run; returns a noisy :class:`EventVector`.

        ``run_id`` keys the noise draw so repeated measurements of the same
        run differ, as on real hardware, but the whole pipeline stays
        reproducible.
        """
        if not events:
            raise PMUError("no events requested")
        names = [e.name for e in events]
        if len(set(names)) != len(names):
            raise PMUError("duplicate events in request")

        rng = rng_for("pmu", self.seed, result.name, run_id or "")
        values = {
            event.name: self._read(result, event, group, 1, rng)
            for event, group in zip(events, self._rotation_groups(events))
        }
        overhead = self.overhead_fraction(events)
        return EventVector(values, overhead=overhead,
                           meta={"run": result.name, **result.meta})

    def measure_stream(
        self,
        result: SimulationResult,
        events: Sequence[Event],
        windows: int = 10,
        run_id: Optional[str] = None,
        source: Optional[str] = None,
        t0: float = 0.0,
    ) -> Iterator[EventVector]:
        """Read ``events`` as ``windows`` periodic samples over the run.

        The online-monitoring view of :meth:`measure`: instead of one
        whole-run reading, the run's counts are split across ``windows``
        equal time slices, each read through the same rotation-group and
        noise model (every window pays its own multiplexing extrapolation
        error, as a real periodic reader would).  Each yielded
        :class:`EventVector` carries ``meta['t']`` (the sample time, at the
        window's end), ``meta['t_start']``/``meta['t_end']``,
        ``meta['window']`` and ``meta['source']`` — exactly the shape
        :class:`repro.serve.stream.WindowAggregator` ingests.

        With ``noisy=False`` the split is exact, so the window counts sum
        to :meth:`measure`'s noiseless reading.  The noise draw is keyed on
        (seed, run, run_id, window), so streams are reproducible and two
        ``run_id``\\ s give independent streams of the same run.
        """
        if windows < 1:
            raise PMUError("need at least one window")
        if not events:
            raise PMUError("no events requested")
        names = [e.name for e in events]
        if len(set(names)) != len(names):
            raise PMUError("duplicate events in request")
        mux_groups = self._rotation_groups(events)
        overhead = self.overhead_fraction(events)
        seconds = max(float(getattr(result, "seconds", 0.0)), 0.0)
        dt = (seconds / windows) if seconds > 0 else 1.0 / windows
        src = source if source is not None else result.name
        for w in range(windows):
            rng = rng_for("pmu-stream", self.seed, result.name,
                          run_id or "", w)
            values = {
                event.name: self._read(result, event, group, windows, rng)
                for event, group in zip(events, mux_groups)
            }
            yield EventVector(
                values,
                overhead=overhead,
                meta={
                    "run": result.name,
                    "source": src,
                    "window": w,
                    "t_start": t0 + w * dt,
                    "t_end": t0 + (w + 1) * dt,
                    "t": t0 + (w + 1) * dt,
                    **result.meta,
                },
            )

    def _read(self, result: SimulationResult, event: Event, group: int,
              windows: int, rng: np.random.Generator) -> float:
        """One event's reading over a ``1 / windows`` slice of the run.

        The one reading model both :meth:`measure` (``windows=1``; the
        divisions by 1 are exact) and :meth:`measure_stream` use.
        """
        true = result.counts.get(event.raw_key, 0.0)
        if event.erratic:
            # Erratum model: the counter mostly counts unrelated loads;
            # only a sliver of the architectural event leaks through, so
            # good-vs-bad ratios collapse toward 1 and the 2x selection
            # rejects it (paper Section 2.3's negative finding).
            true = 0.001 * true + 1.5e-3 * result.counts.get(
                "MEM_INST_RETIRED.LOADS", 0.0)
        true /= windows
        if not self.noisy:
            return true
        sigma = event.noise + (_MUX_NOISE * group if group else 0.0)
        factor = float(np.exp(rng.normal(0.0, sigma)))
        # Additive floor: idle-loop and kernel activity leak a few counts
        # into every event, so zero never measures as zero.
        instr = max(result.counts.get("INST_RETIRED.ANY", 0.0), 1.0)
        return true * factor + rng.uniform(0.0, 2e-7) * instr / windows

    def overhead_fraction(self, events: Sequence[Event]) -> float:
        """Fraction of run time added by counting these events."""
        groups = self._n_groups(events)
        return _BASE_OVERHEAD + _GROUP_OVERHEAD * groups

    def _n_groups(self, events: Sequence[Event]) -> int:
        programmable = sum(1 for e in events if e.raw_key not in _FIXED_KEYS)
        return max(1, -(-programmable // self.counters))

    def _rotation_groups(self, events: Sequence[Event]) -> list:
        """Group index per event (fixed counters are always group 0)."""
        groups = []
        k = 0
        for e in events:
            if e.raw_key in _FIXED_KEYS:
                groups.append(0)
            else:
                groups.append(k // self.counters)
                k += 1
        return groups
