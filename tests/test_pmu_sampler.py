"""Tests for PMU sampling: noise, multiplexing, overhead, errata."""

import numpy as np
import pytest

from repro.coherence.machine import MachineSpec, SimulationResult
from repro.errors import PMUError
from repro.pmu.events import NORMALIZER, TABLE2_EVENTS, event_by_raw_key
from repro.pmu.sampler import PMUSampler, measure_run


def fake_result(counts=None, name="run"):
    base = {
        "INST_RETIRED.ANY": 1_000_000.0,
        "SNOOP_RESPONSE.HITM": 5_000.0,
        "MEM_INST_RETIRED.LOADS": 300_000.0,
        "MEM_UNCORE_RETIRED.OTHER_CORE_L2_HITM": 5_000.0,
        "DTLB_MISSES.ANY": 100.0,
    }
    if counts:
        base.update(counts)
    return SimulationResult(
        counts=base,
        cycles_per_core=[1e6],
        instructions_per_core=[1_000_000],
        seconds=0.001,
        nthreads=1,
        spec=MachineSpec(),
        name=name,
    )


HITM = TABLE2_EVENTS[10]
DTLB = TABLE2_EVENTS[12]


class TestMeasurement:
    def test_noiseless_exact(self):
        v = measure_run(fake_result(), [HITM, NORMALIZER], noisy=False)
        assert v.count(HITM) == 5000.0
        assert v.count(NORMALIZER) == 1_000_000.0

    def test_noise_bounded(self):
        v = measure_run(fake_result(), [HITM, NORMALIZER], noisy=True)
        assert 0.7 * 5000 < v.count(HITM) < 1.4 * 5000

    def test_noise_reproducible(self):
        a = measure_run(fake_result(), [HITM], run_id="r1")
        b = measure_run(fake_result(), [HITM], run_id="r1")
        assert a.count(HITM) == b.count(HITM)

    def test_repeats_differ(self):
        a = measure_run(fake_result(), [HITM], run_id="r1")
        b = measure_run(fake_result(), [HITM], run_id="r2")
        assert a.count(HITM) != b.count(HITM)

    def test_zero_counts_get_a_floor(self):
        v = measure_run(fake_result(), [DTLB, HITM], run_id="x")
        # unmeasured-but-requested events never come back exactly zero
        res = fake_result({"DTLB_MISSES.ANY": 0.0})
        v = measure_run(res, [DTLB], run_id="x")
        assert v.count(DTLB) > 0.0

    def test_empty_request_rejected(self):
        with pytest.raises(PMUError):
            measure_run(fake_result(), [])

    def test_duplicate_request_rejected(self):
        with pytest.raises(PMUError):
            measure_run(fake_result(), [HITM, HITM])


class TestErraticCounter:
    def test_uncore_hitm_dominated_by_loads(self):
        e = event_by_raw_key("MEM_UNCORE_RETIRED.OTHER_CORE_L2_HITM")
        v = measure_run(fake_result(), [e, HITM], noisy=False)
        # erratum model: mostly unrelated load traffic, not the true 5000
        assert v.values[e.name] < 1000.0
        assert v.values[e.name] > 100.0  # load bleed-through
        # while the architectural HITM event is exact
        assert v.values[HITM.name] == 5000.0


class TestOverheadAndMux:
    def test_overhead_under_two_percent_for_table2(self):
        s = PMUSampler()
        assert s.overhead_fraction(list(TABLE2_EVENTS)) < 0.02

    def test_overhead_grows_with_groups(self):
        s = PMUSampler()
        assert (s.overhead_fraction(list(TABLE2_EVENTS))
                > s.overhead_fraction([HITM]))

    def test_fixed_counters_do_not_multiplex(self):
        s = PMUSampler()
        groups = s._rotation_groups([NORMALIZER, HITM, DTLB])
        assert groups[0] == 0  # instructions live on a fixed counter

    def test_mux_noise_grows_with_group(self):
        # later-group events get noisier measurements on average
        draws_low, draws_high = [], []
        events14 = TABLE2_EVENTS[:15]
        for rid in range(60):
            v = measure_run(fake_result(
                {e.raw_key: 10_000.0 for e in events14}),
                events14, run_id=str(rid))
            draws_low.append(v.values[events14[0].name])
            draws_high.append(v.values[events14[13].name])
        # event 14 (L1D repl) has higher intrinsic noise AND later group
        assert np.std(draws_high) > np.std(draws_low)

    def test_counters_param_validated(self):
        with pytest.raises(PMUError):
            PMUSampler(counters=0)


class TestPinnedReadings:
    """Both readers share one reading model; these exact noisy values
    (fixed counter, multiplexed groups 0-2, the erratic counter) pin it."""

    KEYS = ("INST_RETIRED.ANY", "DTLB_MISSES.ANY", "SNOOP_RESPONSE.HITM",
            "MEM_UNCORE_RETIRED.OTHER_CORE_L2_HITM")

    @pytest.fixture
    def reading(self):
        events = [event_by_raw_key(k) for k in self.KEYS]
        return PMUSampler(counters=1, seed=3), fake_result(name="pinned"), \
            events

    def test_measure_vector(self, reading):
        sampler, result, events = reading
        vec = sampler.measure(result, events, run_id="r1")
        assert list(vec.values.values()) == [
            1002293.9039796822, 99.81543459725333, 5056.379651534077,
            311.35368118583193]

    def test_measure_stream_vector(self, reading):
        sampler, result, events = reading
        vec = list(sampler.measure_stream(result, events, windows=4,
                                          run_id="r1"))[2]
        assert list(vec.values.values()) == [
            250318.27357177166, 24.448590232805717, 1047.691088617451,
            85.33759494009975]
