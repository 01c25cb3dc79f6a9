"""Property-based tests: the simulator against the shadow-memory oracle.

The MESI simulator (``repro.coherence.machine``) and the shadow-memory
oracle (``repro.baselines.shadow``) model sharing independently, one with
finite caches and snoop responses, the other with per-thread holding sets
and word masks.  Driven over the same merged order they must satisfy two
inequalities (derived in DESIGN.md, "Cross-model constraints"):

* every oracle contention miss is a simulator miss that a remote cache
  answers: ``fs + ts <= HITM + HIT + HITE``, as long as no copy is
  evicted in between (the programs below fit each core's L2);
* every HITM is an access the oracle also counts as a miss:
  ``HITM <= fs + ts + cold``.
"""

from hypothesis import given, settings, strategies as st

from repro.baselines.shadow import ShadowMemoryDetector
from repro.coherence.machine import MulticoreMachine

from tests.conftest import SMALL_SPEC
from tests.test_properties_machine import program_traces


@settings(max_examples=60, deadline=None)
@given(program_traces(), st.booleans(), st.sampled_from([1, 2, 4, 8]))
def test_simulator_snoops_bound_oracle_contention(prog, prefetch, chunk):
    # The 256-line address range of program_traces fills SMALL_SPEC's L2
    # (16 KiB) exactly, so no L2 copy is ever evicted.
    counts = MulticoreMachine(SMALL_SPEC, prefetch=prefetch).run(
        prog, chunk=chunk).counts
    rep = ShadowMemoryDetector().run(prog, chunk=chunk)
    hitm = counts["SNOOP_RESPONSE.HITM"]
    answered = hitm + counts["SNOOP_RESPONSE.HIT"] \
        + counts["SNOOP_RESPONSE.HITE"]
    contention = rep.fs_misses + rep.ts_misses
    assert contention <= answered
    assert hitm <= contention + rep.cold_misses
