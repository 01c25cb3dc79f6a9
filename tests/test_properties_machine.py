"""Property-based tests: simulator invariants over random traces.

Hypothesis generates small multi-threaded access traces; the machine must
uphold architectural invariants on all of them — counts that cannot go
negative, containment relations between cache levels, and the guarantee
that a single-threaded run never snoops.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.coherence.machine import MulticoreMachine
from repro.trace.access import ProgramTrace, make_thread

from tests.conftest import SMALL_SPEC


@st.composite
def program_traces(draw, max_threads=4, max_len=300):
    nt = draw(st.integers(1, max_threads))
    threads = []
    for _ in range(nt):
        n = draw(st.integers(1, max_len))
        # Confine addresses to a handful of pages so threads actually share.
        addrs = draw(
            st.lists(st.integers(0, 4096 * 4 - 1), min_size=n, max_size=n)
        )
        writes = draw(st.lists(st.booleans(), min_size=n, max_size=n))
        threads.append(
            make_thread(np.array(addrs, dtype=np.int64) + 4096,
                        np.array(writes, dtype=bool))
        )
    return ProgramTrace(threads)


def run(prog, prefetch=True):
    return MulticoreMachine(SMALL_SPEC, prefetch=prefetch).run(prog)


class TestInvariants:
    @settings(max_examples=40, deadline=None)
    @given(program_traces())
    def test_counts_non_negative_and_finite(self, prog):
        r = run(prog)
        for key, value in r.counts.items():
            assert value >= 0.0, key
            assert np.isfinite(value), key

    @settings(max_examples=40, deadline=None)
    @given(program_traces())
    def test_l1_fills_at_least_l2_fills(self, prog):
        # inclusive hierarchy: every L2 fill also fills L1
        r = run(prog)
        assert r.counts["L1D.REPL"] >= r.counts["L2_TRANSACTIONS.FILL"]

    @settings(max_examples=40, deadline=None)
    @given(program_traces())
    def test_lines_in_bounded_by_fills(self, prog):
        r = run(prog)
        assert (r.counts["L2_LINES_IN.S_STATE"]
                + r.counts["L2_LINES_IN.E_STATE"]
                <= r.counts["L2_TRANSACTIONS.FILL"] + 1e-9)

    @settings(max_examples=40, deadline=None)
    @given(program_traces())
    def test_loads_stores_partition_accesses(self, prog):
        r = run(prog)
        assert (r.counts["MEM_INST_RETIRED.LOADS"]
                + r.counts["MEM_INST_RETIRED.STORES"]
                == prog.total_accesses)

    @settings(max_examples=40, deadline=None)
    @given(program_traces())
    def test_instructions_match_traces(self, prog):
        r = run(prog)
        assert r.instructions == prog.total_instructions

    @settings(max_examples=30, deadline=None)
    @given(program_traces(max_threads=1))
    def test_single_thread_never_snoops(self, prog):
        r = run(prog)
        for key in ("SNOOP_RESPONSE.HIT", "SNOOP_RESPONSE.HITE",
                    "SNOOP_RESPONSE.HITM", "L2_WRITE.RFO.S_STATE"):
            assert r.counts[key] == 0, key

    @settings(max_examples=25, deadline=None)
    @given(program_traces())
    def test_determinism(self, prog):
        a = run(prog)
        b = run(prog)
        assert a.counts == b.counts
        assert a.cycles_per_core == b.cycles_per_core

    @settings(max_examples=25, deadline=None)
    @given(program_traces())
    def test_footprint_bounds_cold_misses(self, prog):
        # L3 misses can't exceed the number of distinct lines touched
        # (nothing is ever evicted from the big L3 in these tiny traces)
        r = run(prog, prefetch=False)
        assert r.counts["LONGEST_LAT_CACHE.MISS"] <= prog.footprint_lines()

    @settings(max_examples=25, deadline=None)
    @given(program_traces())
    def test_seconds_positive_when_work_done(self, prog):
        r = run(prog)
        if prog.total_instructions:
            assert r.seconds > 0.0

    @settings(max_examples=25, deadline=None)
    @given(program_traces(), st.sampled_from([1, 2, 8]))
    def test_chunking_preserves_count_totals(self, prog, chunk):
        """Interleave granularity moves events between categories but never
        invents or loses accesses."""
        r = MulticoreMachine(SMALL_SPEC).run(prog, chunk=chunk)
        assert (r.counts["MEM_INST_RETIRED.LOADS"]
                + r.counts["MEM_INST_RETIRED.STORES"]
                == prog.total_accesses)


def _final_states(prog):
    """Machines left holding their final state: compiled and spec loop."""
    machines = [MulticoreMachine(SMALL_SPEC, fast=fast)
                for fast in (True, False)]
    for m in machines:
        m.run(prog, keep_state=True)
    fast, ref = machines
    for cf, cr in zip(fast._l1 + fast._l2 + [fast._l3],
                      ref._l1 + ref._l2 + [ref._l3]):
        assert list(cf.lines()) == list(cr.lines()), cf.name
    return machines


class TestCoherenceSoundness:
    @settings(max_examples=30, deadline=None)
    @given(program_traces(max_threads=4, max_len=200))
    def test_mesi_single_owner_invariant(self, prog):
        """The final cache states satisfy MESI: a line Modified or Exclusive
        in one core is resident in no other core; Shared copies agree."""
        from collections import defaultdict

        from repro.coherence.protocol import EXCLUSIVE, MODIFIED, SHARED

        for m in _final_states(prog):
            by_line = defaultdict(list)
            for core, l2 in enumerate(m._l2):
                for line, state in l2.lines():
                    by_line[line].append((core, state))
            for line, holders in by_line.items():
                states = [s for _, s in holders]
                if MODIFIED in states or EXCLUSIVE in states:
                    assert len(holders) == 1, (line, holders)
                else:
                    assert all(s == SHARED for s in states), (line, holders)

    @settings(max_examples=30, deadline=None)
    @given(program_traces(max_threads=4, max_len=200))
    def test_l1_contained_in_l2_with_same_state(self, prog):
        """Inclusion invariant: every L1-resident line is in that core's L2
        with an identical MESI state."""
        for m in _final_states(prog):
            for l1, l2 in zip(m._l1, m._l2):
                for line, state in l1.lines():
                    assert l2.lookup(line) == state, line


@st.composite
def adversarial_traces(draw, max_threads=4):
    """Traces built to stress the coherence paths: one hot line every
    thread fights over, thread-private lines, and page-crossing sequential
    runs — interleaved in random per-thread segment orders."""
    nt = draw(st.integers(2, max_threads))
    hot = 4096  # one line's byte base, shared by every thread
    threads = []
    for t in range(nt):
        kinds = draw(st.lists(st.sampled_from(["hot", "private", "page"]),
                              min_size=1, max_size=6))
        addrs = []
        for kind in kinds:
            ln = draw(st.integers(1, 48))
            if kind == "hot":
                offs = draw(st.lists(st.integers(0, 63),
                                     min_size=ln, max_size=ln))
                addrs.extend(hot + o for o in offs)
            elif kind == "private":
                base = 8192 + t * 4096  # this thread's page, nobody else's
                offs = draw(st.lists(st.integers(0, 4095),
                                     min_size=ln, max_size=ln))
                addrs.extend(base + o for o in offs)
            else:  # a sequential line run crossing a page boundary
                start = 24576 + draw(st.integers(0, 2)) * 4096 - 128
                addrs.extend(start + i * 64 for i in range(ln))
        n = len(addrs)
        writes = draw(st.lists(st.booleans(), min_size=n, max_size=n))
        threads.append(make_thread(np.array(addrs, dtype=np.int64),
                                   np.array(writes, dtype=bool)))
    return ProgramTrace(threads)


class TestNativeReferenceEquivalence:
    """The compiled loop and the Python spec agree exactly on adversarial
    traces."""

    @settings(max_examples=30, deadline=None)
    @given(adversarial_traces())
    def test_exact_tally_equality_native_vs_reference(self, prog):
        ref = MulticoreMachine(SMALL_SPEC, fast=False,
                               hitm_sample_period=5).run(prog)
        res = MulticoreMachine(SMALL_SPEC, fast=True,
                               hitm_sample_period=5).run(prog)
        assert res.counts == ref.counts
        assert res.cycles_per_core == ref.cycles_per_core
        assert res.seconds == ref.seconds
        assert res.hitm_samples == ref.hitm_samples
