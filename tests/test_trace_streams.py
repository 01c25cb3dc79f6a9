"""Tests for the chunked round-robin interleaver."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import TraceError
from repro.trace.access import ProgramTrace, make_thread
from repro.trace.streams import MergedTrace, interleave_stream


def _merged(program, chunk=4, max_accesses=5):
    """The merged order: ``interleave_stream`` windows, concatenated.

    The small default window puts several window edges in every test.
    """
    pieces = list(interleave_stream(program, chunk=chunk,
                                    max_accesses=max_accesses))
    return MergedTrace(*(np.concatenate([getattr(p, col) for p in pieces])
                         for col in ("core", "addr", "is_write")))


def _prog(lengths, base_step=1000):
    threads = []
    for i, n in enumerate(lengths):
        addrs = np.arange(n, dtype=np.int64) + i * base_step
        threads.append(make_thread(addrs))
    return ProgramTrace(threads)


class TestInterleave:
    def test_round_robin_chunks(self):
        m = _merged(_prog([8, 8]), chunk=4)
        assert m.core.tolist() == [0] * 4 + [1] * 4 + [0] * 4 + [1] * 4
        assert m.addr.tolist() == [0, 1, 2, 3, 1000, 1001, 1002, 1003,
                                   4, 5, 6, 7, 1004, 1005, 1006, 1007]

    def test_preserves_all_accesses(self):
        prog = _prog([10, 7, 3])
        m = _merged(prog, chunk=4)
        assert len(m) == 20

    def test_per_thread_order_preserved(self):
        prog = _prog([13, 9])
        m = _merged(prog, chunk=4)
        for tid in range(2):
            sel = m.core == tid
            assert (m.addr[sel] == prog.threads[tid].addrs).all()

    def test_single_thread_passthrough(self):
        prog = _prog([5])
        m = _merged(prog, max_accesses=2)
        assert m.addr.tolist() == [0, 1, 2, 3, 4]
        assert m.core.tolist() == [0] * 5

    def test_unequal_lengths_finish_early(self):
        m = _merged(_prog([8, 2]), chunk=2)
        # thread 1 contributes only its 2 accesses, in round 0
        assert m.core.tolist() == [0, 0, 1, 1, 0, 0, 0, 0, 0, 0]
        assert m.addr.tolist() == [0, 1, 1000, 1001, 2, 3, 4, 5, 6, 7]

    def test_writes_travel_with_addresses(self):
        a = make_thread(np.array([1, 2]), np.array([True, False]))
        b = make_thread(np.array([3]), np.array([True]))
        m = _merged(ProgramTrace([a, b]), chunk=1)
        assert m.addr.tolist() == [1, 3, 2]
        assert m.is_write.tolist() == [True, True, False]

    def test_chunk_one_alternates(self):
        m = _merged(_prog([3, 3]), chunk=1)
        assert m.core.tolist() == [0, 1, 0, 1, 0, 1]

    def test_bad_chunk_rejected(self):
        with pytest.raises(TraceError):
            list(interleave_stream(_prog([2, 2]), chunk=0))

    def test_windows_sized_from_live_threads(self):
        # One long thread outlives seven short ones: once they finish, its
        # windows fill max_accesses on their own instead of 1/8 of it.
        prog = _prog([1_000_000] + [1_000] * 7, base_step=2_000_000)
        pieces = list(interleave_stream(prog, chunk=4, max_accesses=100_000))
        assert len(pieces) <= 12
        assert all(len(p) <= 100_000 for p in pieces)
        whole, = interleave_stream(prog, chunk=4, max_accesses=8_000_000)
        for col in ("core", "addr", "is_write"):
            joined = np.concatenate([getattr(p, col) for p in pieces])
            assert np.array_equal(joined, getattr(whole, col))

    def test_empty_threads(self):
        prog = ProgramTrace([make_thread(np.array([], dtype=np.int64)),
                             make_thread(np.array([], dtype=np.int64))])
        assert list(interleave_stream(prog)) == []

    @settings(max_examples=25)
    @given(
        st.lists(st.integers(0, 40), min_size=2, max_size=5),
        st.integers(1, 8),
        st.integers(1, 50),
    )
    def test_merge_is_a_permutation(self, lengths, chunk, max_accesses):
        if sum(lengths) == 0:
            return
        prog = _prog(lengths)
        m = _merged(prog, chunk=chunk, max_accesses=max_accesses)
        assert len(m) == sum(lengths)
        all_addrs = np.concatenate([t.addrs for t in prog.threads])
        assert sorted(m.addr.tolist()) == sorted(all_addrs.tolist())

    @settings(max_examples=25)
    @given(st.integers(1, 6))
    def test_fairness_within_rounds(self, chunk):
        # With equal-length threads, after the merge every prefix contains
        # roughly equal work from each thread (within one chunk).
        prog = _prog([24, 24, 24])
        m = _merged(prog, chunk=chunk)
        for cut in range(0, 72, 12):
            counts = np.bincount(m.core[:cut + 12], minlength=3)
            assert counts.max() - counts.min() <= chunk
