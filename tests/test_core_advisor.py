"""Tests for the false-sharing advisor (diagnosis + padding estimate)."""

import numpy as np
import pytest

from repro.analysis.sharing import analyze_trace
from repro.core.advisor import (
    TOP_LINES,
    Diagnosis,
    FalseSharingAdvisor,
    pad_trace,
)
from repro.trace.access import ProgramTrace, make_thread
from repro.workloads.base import RunConfig
from repro.workloads.registry import get_workload

from tests.test_core_detector import fitted  # noqa: F401  (reuse fixture)


def rmw_thread(addr, n):
    addrs = np.full(2 * n, addr, dtype=np.int64)
    writes = np.zeros(2 * n, bool)
    writes[1::2] = True
    return make_thread(addrs, writes)


def false_shared(prog):
    return analyze_trace(prog).false_shared()


def packed_lines(n_lines, n):
    """Two threads, each owning 8 bytes of every one of ``n_lines`` lines."""
    threads = []
    for tid in range(2):
        t = rmw_thread(4096 + 8 * tid, n)
        for k in range(1, n_lines):
            t = t.concat(rmw_thread(4096 + 64 * k + 8 * tid, n))
        threads.append(t)
    return ProgramTrace(threads)


@pytest.fixture
def advisor(fitted):
    return FalseSharingAdvisor(fitted)


@pytest.fixture
def forced_bad_fs(advisor, monkeypatch):
    """The advisor with the verdict pinned to bad-fs, so the line choice is
    tested on synthetic traces independent of the tree."""
    monkeypatch.setattr(advisor.detector, "classify_vector",
                        lambda vec: "bad-fs")
    return advisor


class TestFalseSharedLines:
    def test_finds_packed_line(self):
        prog = ProgramTrace([rmw_thread(4096, 200), rmw_thread(4104, 200)])
        found = false_shared(prog)
        assert len(found) == 1
        ls = found[0]
        assert ls.line == 64
        assert ls.writers == [0, 1]
        assert ls.evidence() == {0: (0, 0), 1: (8, 8)}
        assert {u.tid: u.writes for u in ls.uses} == {0: 200, 1: 200}

    def test_true_sharing_excluded(self):
        # both threads write the same word: true sharing, not advice fodder
        prog = ProgramTrace([rmw_thread(4096, 200), rmw_thread(4096, 200)])
        assert false_shared(prog) == []

    def test_private_lines_excluded(self):
        prog = ProgramTrace([rmw_thread(4096, 200), rmw_thread(4160, 200)])
        assert false_shared(prog) == []

    def test_hottest_lines_first(self):
        prog = ProgramTrace([
            rmw_thread(4096, 50).concat(rmw_thread(8192, 500)),
            rmw_thread(4104, 50).concat(rmw_thread(8200, 500)),
        ])
        assert [ls.line for ls in false_shared(prog)] == [128, 64]

    def test_top_lines_cap(self, forced_bad_fs):
        prog = packed_lines(TOP_LINES + 2, 30)
        assert len(false_shared(prog)) == TOP_LINES + 2
        d = forced_bad_fs.diagnose_trace(prog)
        assert len(d.contended) == TOP_LINES

    def test_handoff_not_named(self, forced_bad_fs):
        # T0 is done with line 64 before T1 first touches it: the writers
        # never overlap in time, so the line cannot ping-pong
        t0 = rmw_thread(4096, 10).concat(rmw_thread(8192, 500))
        t1 = rmw_thread(12288, 500).concat(rmw_thread(4104, 10))
        d = forced_bad_fs.diagnose_trace(ProgramTrace([t0, t1]))
        assert d.contended == []
        assert d.padded_seconds is None


class TestPadTrace:
    def test_padding_separates_writers(self):
        prog = ProgramTrace([rmw_thread(4096, 200), rmw_thread(4104, 200)])
        fixed = pad_trace(prog, false_shared(prog))
        lines0 = set((fixed.threads[0].addrs >> 6).tolist())
        lines1 = set((fixed.threads[1].addrs >> 6).tolist())
        assert not (lines0 & lines1)

    def test_padding_preserves_access_counts(self):
        prog = ProgramTrace([rmw_thread(4096, 200), rmw_thread(4104, 200)])
        fixed = pad_trace(prog, false_shared(prog))
        assert fixed.total_accesses == prog.total_accesses
        assert fixed.total_instructions == prog.total_instructions

    def test_no_contention_returns_same_program(self):
        prog = ProgramTrace([rmw_thread(4096, 10)])
        assert pad_trace(prog, []) is prog

    def test_fresh_lines_numbered_in_line_order(self):
        # highest address 4200 is on line 65, so fresh lines start at 67:
        # line 65 (hottest) gets 67/68, then line 64 gets 69/70, writers
        # ascending; byte offsets within the line are kept
        prog = ProgramTrace([
            rmw_thread(4096, 50).concat(rmw_thread(4160, 500)),
            rmw_thread(4104, 50).concat(rmw_thread(4200, 500)),
        ])
        found = false_shared(prog)
        assert [ls.line for ls in found] == [65, 64]
        fixed = pad_trace(prog, found)
        a0, a1 = (t.addrs for t in fixed.threads)
        assert set(a0[:100].tolist()) == {69 * 64}
        assert set(a0[100:].tolist()) == {67 * 64}
        assert set(a1[:100].tolist()) == {70 * 64 + 8}
        assert set(a1[100:].tolist()) == {68 * 64 + 40}
        for t, f in zip(prog.threads, fixed.threads):
            assert (t.is_write == f.is_write).all()


def reference_pad(program, lines):
    """The per-access remap loop pad_trace vectorises."""
    fresh = (max(int(t.addrs.max()) for t in program.threads) >> 6) + 2
    remap = {}
    for ls in lines:
        for tid in ls.writers:
            remap[(ls.line, tid)] = fresh
            fresh += 1
    out = []
    for tid, t in enumerate(program.threads):
        addrs = t.addrs.copy()
        for i, a in enumerate(addrs.tolist()):
            new = remap.get((a >> 6, tid))
            if new is not None:
                addrs[i] = (new << 6) | (a & 63)
        out.append(addrs)
    return out


@pytest.mark.parametrize("make", [
    lambda: get_workload("psums").trace(
        RunConfig(threads=6, mode="bad-fs", size=2000)),
    lambda: get_workload("pdot").trace(
        RunConfig(threads=4, mode="bad-fs", size=4096)),
    lambda: packed_lines(TOP_LINES + 2, 30),
], ids=["psums", "pdot", "packed"])
def test_pad_trace_matches_per_access_reference(make):
    prog = make()
    found = false_shared(prog)
    assert found
    fixed = pad_trace(prog, found)
    for got, want in zip(fixed.threads, reference_pad(prog, found)):
        assert (got.addrs == want).all()


class TestPadTraceEdgeCases:
    """pad_trace is purely structural — no detector needed."""

    def test_single_thread_program_never_contended(self):
        prog = ProgramTrace([rmw_thread(4096, 100)])
        assert false_shared(prog) == []
        assert pad_trace(prog, []) is prog

    def test_sole_writer_line_untouched(self):
        # T1 only reads line 65; padding the contended line must not move
        # accesses of threads that never wrote it.
        reads = make_thread(np.full(50, 4160, dtype=np.int64))
        prog = ProgramTrace([
            rmw_thread(4096, 100).concat(rmw_thread(4160, 100)),
            rmw_thread(4104, 100).concat(reads),
        ])
        found = false_shared(prog)
        assert [ls.line for ls in found] == [64]
        fixed = pad_trace(prog, found)
        # T1's reads of line 65 stay where they were
        assert (fixed.threads[1].addrs[-50:] == 4160).all()
        # and line 65, written only by T0, is not remapped either
        assert 65 in set((fixed.threads[0].addrs >> 6).tolist())

    def test_idempotent(self):
        prog = ProgramTrace([rmw_thread(4096, 200), rmw_thread(4104, 200)])
        once = pad_trace(prog, false_shared(prog))
        # after padding there is nothing left to find, so a second pass
        # is the identity
        assert false_shared(once) == []
        twice = pad_trace(once, false_shared(once))
        assert twice is once

    def test_padded_name_suffix(self):
        prog = ProgramTrace([rmw_thread(4096, 200), rmw_thread(4104, 200)],
                            name="demo")
        fixed = pad_trace(prog, false_shared(prog))
        assert fixed.name == "demo+padded"


class TestDiagnose:
    def test_bad_fs_diagnosis_end_to_end(self, advisor):
        pdot = get_workload("pdot")
        cfg = RunConfig(threads=4, mode="bad-fs", size=65_536)
        d = advisor.diagnose(pdot, cfg)
        assert d.label == "bad-fs"
        assert d.contended, "must name the contended line"
        assert d.padded_seconds is not None
        assert d.estimated_speedup > 2.0
        out = d.render()
        assert "Falsely shared cache lines" in out
        assert "written byte spans" in out
        assert "estimated effect of padding" in out

    def test_good_run_no_advice(self, advisor):
        pdot = get_workload("pdot")
        d = advisor.diagnose(pdot, RunConfig(threads=4, mode="good",
                                             size=65_536))
        assert d.label != "bad-fs"
        assert d.contended == []
        assert d.padded_seconds is None
        assert "no false sharing to fix" in d.render()

    def test_padded_replay_faster(self, advisor):
        pdot = get_workload("pdot")
        d = advisor.diagnose(pdot, RunConfig(threads=6, mode="bad-fs",
                                             size=98_304))
        assert d.padded_seconds < d.seconds

    def test_bad_fs_without_lines_renders_no_table(self):
        out = Diagnosis("bad-fs", 1e-3, []).render()
        assert "no contended false-shared line" in out
        assert "Falsely shared cache lines" not in out
        assert "fix:" not in out
