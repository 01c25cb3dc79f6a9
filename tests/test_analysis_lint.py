"""Tests for the sharing lint rules (FS001-FS008)."""

import numpy as np
import pytest

from repro.analysis.lint import (
    SLOT_SPAN,
    Finding,
    SharingLinter,
    findings_table,
    render_findings,
)
from repro.analysis.sharing import analyze_trace, predict_plan
from repro.memory.symbols import Symbol
from repro.trace.access import ProgramTrace, make_thread
from repro.workloads.base import RunConfig
from repro.workloads.plan import PlanBuilder
from repro.workloads.registry import get_workload


def rmw_thread(addr, n):
    addrs = np.full(2 * n, addr, dtype=np.int64)
    writes = np.zeros(2 * n, bool)
    writes[1::2] = True
    return make_thread(addrs, writes)


@pytest.fixture(scope="module")
def linter():
    return SharingLinter()


def rules(findings):
    return sorted({f.rule for f in findings})


class TestFS001:
    def test_fires_on_packed_counters(self, linter):
        prog = ProgramTrace([rmw_thread(4096, 200), rmw_thread(4104, 200)])
        findings = linter.lint(prog)
        (f,) = [f for f in findings if f.rule == "FS001"]
        assert f.severity == "error"  # significance ~1.0
        assert f.lines == [64]
        assert f.threads == [0, 1]
        assert "padding" in f.suggestion
        assert "2 private line(s) (128 bytes)" in f.suggestion

    def test_warning_below_error_threshold(self, linter):
        # contended line carries ~0.4% of instructions: above the report
        # threshold, below the error escalation
        t0 = rmw_thread(4096, 10).concat(rmw_thread(8192, 2500))
        t1 = rmw_thread(4104, 10).concat(rmw_thread(12288, 2500))
        findings = [f for f in linter.lint(ProgramTrace([t0, t1]))
                    if f.rule == "FS001"]
        assert [f.severity for f in findings] == ["warning"]

    def test_silent_on_handoff(self, linter):
        t0 = rmw_thread(4096, 10).concat(rmw_thread(8192, 500))
        t1 = rmw_thread(12288, 500).concat(rmw_thread(4104, 10))
        assert "FS001" not in rules(linter.lint(ProgramTrace([t0, t1])))


class TestFS002:
    def test_fires_on_tight_adjacent_writers(self, linter):
        prog = ProgramTrace([rmw_thread(4096 + 60, 100),
                             rmw_thread(4160, 100)])
        (f,) = [f for f in linter.lint(prog) if f.rule == "FS002"]
        assert f.severity == "info"
        assert f.lines == [64, 65]
        assert f.data["slack_bytes"] == 3

    def test_silent_on_roomy_layout(self, linter):
        prog = ProgramTrace([rmw_thread(4096, 100),
                             rmw_thread(4160 + 60, 100)])
        assert "FS002" not in rules(linter.lint(prog))


class TestFS003:
    def test_fires_on_hostile_scan(self, linter):
        once = np.arange(0, 512 * 64, 64, dtype=np.int64)
        prog = ProgramTrace([make_thread(np.tile(once, 4)),
                             rmw_thread(1 << 20, 100)])
        (f,) = [f for f in linter.lint(prog) if f.rule == "FS003"]
        assert f.severity == "warning"
        assert f.threads == [0]
        assert f.data["footprint_lines"] == 512

    def test_silent_on_streaming_scan(self, linter):
        addrs = np.arange(0, 512 * 64, 8, dtype=np.int64)
        prog = ProgramTrace([make_thread(addrs)])
        assert "FS003" not in rules(linter.lint(prog))


class TestFS004:
    def test_fires_on_slot_packed_line(self, linter):
        prog = ProgramTrace([rmw_thread(4096 + 8 * t, 200)
                             for t in range(4)])
        (f,) = [f for f in linter.lint(prog) if f.rule == "FS004"]
        assert f.severity == "info"
        assert f.threads == [0, 1, 2, 3]
        assert f.data["slot_bytes"] <= SLOT_SPAN

    def test_silent_when_spans_are_wide(self, linter):
        # each thread sweeps a 28-byte range of the line: false sharing
        # (FS001) but not the packed-slot shape
        def wide(base):
            addrs = np.tile(np.arange(base, base + 28, 4, dtype=np.int64),
                            50)
            return make_thread(addrs, np.ones(addrs.size, bool))

        prog = ProgramTrace([wide(4096), wide(4096 + 32)])
        got = rules(linter.lint(prog))
        assert "FS001" in got
        assert "FS004" not in got


class TestLinterFrontend:
    def test_clean_program_no_findings(self, linter):
        prog = ProgramTrace([rmw_thread(4096, 100), rmw_thread(8192, 100)])
        assert linter.lint(prog) == []

    def test_severity_ordering(self, linter):
        # error (FS001) must precede info (FS004) regardless of rule id
        prog = ProgramTrace([rmw_thread(4096 + 8 * t, 200)
                             for t in range(4)])
        sevs = [f.severity for f in linter.lint(prog)]
        assert sevs == sorted(
            sevs, key=lambda s: {"error": 0, "warning": 1, "info": 2}[s]
        )

    def test_precomputed_report_reused(self, linter):
        prog = ProgramTrace([rmw_thread(4096, 200), rmw_thread(4104, 200)])
        rep = analyze_trace(prog)
        assert rules(linter.lint(prog, rep)) == rules(linter.lint(prog))

    def test_mini_program_bad_fs(self, linter):
        w = get_workload("psums")
        prog = w.trace(RunConfig(threads=4, mode="bad-fs", size=2000))
        got = rules(linter.lint(prog))
        assert "FS001" in got
        assert "FS004" in got  # 8-byte slots packed into one line

    def test_mini_program_good_clean_of_fs(self, linter):
        w = get_workload("psums")
        prog = w.trace(RunConfig(threads=4, mode="good", size=2000))
        assert "FS001" not in rules(linter.lint(prog))


class TestRendering:
    def test_render_findings_empty(self):
        assert "clean" in render_findings([])

    def test_render_findings_counts(self):
        fs = [Finding("FS001", "error", "m", [1]),
              Finding("FS003", "warning", "m")]
        out = render_findings(fs)
        assert "2 finding(s)" in out
        assert "1 error(s)" in out

    def test_findings_table(self):
        out = findings_table([Finding("FS001", "error", "msg", [64], [0])])
        assert "FS001" in out
        assert "0x1000" in out

    def test_finding_to_dict(self):
        d = Finding("FS002", "info", "m", [1, 2], [0, 3], "fix",
                    {"k": 1}).to_dict()
        assert d["rule"] == "FS002"
        assert d["lines"] == [1, 2]
        assert d["data"] == {"k": 1}


# --------------------------------------------------------------------------
# Layout-aware rules (FS005-FS008) over symbolic predictions.

def plan_cfg(name, mode, threads=4):
    w = get_workload(name)
    t = threads if w.kind == "mt" else 1
    return w.plan(RunConfig(threads=t, mode=mode, size=w.train_sizes[0],
                            pattern="random"))


def adjacency_plan():
    """Hot fields of two *unrelated* per-thread objects on one line."""
    pb = PlanBuilder("adj", 2)
    base = pb.alloc.alloc(64, align=64)
    a = pb.symbols.add(Symbol("hot_a", base, 8, kind="slot", tid=0,
                              group="ga"))
    b = pb.symbols.add(Symbol("hot_b", base + 8, 8, kind="slot", tid=1,
                              group="gb"))
    pb.use(a, 0, reads=50_000, writes=50_000, order="scattered")
    pb.use(b, 1, reads=50_000, writes=50_000, order="scattered")
    return pb.finish(3.0, workload="adj", mode="synthetic")


def misaligned_plan():
    """A written array whose base straddles into the sync word's line."""
    pb = PlanBuilder("mis", 2)
    sync = pb.line_region("sync", 16, size=8, kind="sync")
    out_base = pb.alloc.alloc(256, align=16)  # lands 16 bytes into a line
    out = pb.symbols.add(Symbol("out", out_base, 256, kind="array", tid=1,
                                elem_size=8))
    pb.use(sync, 0, reads=1000, writes=1000, order="scattered", phase=1)
    pb.use(out, 1, writes=10_000, order="linear")
    return pb.finish(3.0, workload="mis", mode="synthetic")


class TestFS005:
    def test_fires_on_incidental_adjacency(self, linter):
        findings = linter.lint_prediction(predict_plan(adjacency_plan()))
        (f,) = [x for x in findings if x.rule == "FS005"]
        assert f.severity == "error"
        assert f.objects == ["hot_a", "hot_b"]
        assert f.threads == [0, 1]
        assert sorted(f.data["groups"]) == ["ga", "gb"]
        assert f.scope == "adj/synthetic/t2"

    def test_silent_on_packed_group(self, linter):
        # one packed slot *group* is FS006's shape, not FS005's
        findings = linter.lint_prediction(
            predict_plan(plan_cfg("psums", "bad-fs")))
        assert "FS005" not in rules(findings)


class TestFS006:
    def test_fires_on_packed_slot_group(self, linter):
        findings = linter.lint_prediction(
            predict_plan(plan_cfg("psums", "bad-fs")))
        (f,) = [x for x in findings if x.rule == "FS006"]
        assert f.severity == "error"
        assert f.objects == [f"psum[t{t}]" for t in range(4)]
        assert f.data["pitch"] < 64
        assert "pad" in f.suggestion

    def test_silent_on_padded_group(self, linter):
        findings = linter.lint_prediction(
            predict_plan(plan_cfg("psums", "good")))
        assert "FS006" not in rules(findings)


class TestFS007:
    def test_fires_on_interleaved_partition(self, linter):
        findings = linter.lint_prediction(
            predict_plan(plan_cfg("pmatmult", "bad-fs")))
        (f,) = [x for x in findings if x.rule == "FS007"]
        assert f.severity == "error"
        assert f.objects == ["C"]
        assert f.data["step"] > 1
        assert f.data["elems_per_line"] > 1

    def test_silent_on_block_partition(self, linter):
        findings = linter.lint_prediction(
            predict_plan(plan_cfg("pmatmult", "good")))
        assert "FS007" not in rules(findings)


class TestFS008:
    def test_info_on_latent_straddle(self, linter):
        findings = linter.lint_prediction(predict_plan(misaligned_plan()))
        (f,) = [x for x in findings if x.rule == "FS008"]
        assert f.severity == "info"
        assert f.objects == ["out", "sync"]
        assert f.data["misalignment"] == 16
        assert "align" in f.suggestion

    def test_warning_when_line_contended(self, linter):
        findings = linter.lint_prediction(predict_plan(adjacency_plan()))
        (f,) = [x for x in findings if x.rule == "FS008"]
        assert f.severity == "warning"
        assert "hot_a" in f.objects and "hot_b" in f.objects


class TestPredictionLintFrontend:
    def test_clean_plan_no_findings(self, linter):
        assert linter.lint_prediction(
            predict_plan(plan_cfg("false1", "good"))) == []

    def test_scope_set_on_every_finding(self, linter):
        findings = linter.lint_prediction(
            predict_plan(plan_cfg("psums", "bad-fs")))
        assert findings
        assert all(f.scope == "psums/bad-fs/t4" for f in findings)

    def test_severity_ordering(self, linter):
        sevs = [f.severity for f in
                linter.lint_prediction(predict_plan(adjacency_plan()))]
        assert sevs == sorted(
            sevs, key=lambda s: {"error": 0, "warning": 1, "info": 2}[s])


class TestSymbolEnrichment:
    def test_trace_lint_gains_objects_and_scope(self, linter):
        w = get_workload("psums")
        cfg = RunConfig(threads=4, mode="bad-fs", size=2000)
        plan = w.plan(cfg)
        findings = linter.lint(w.trace(cfg), symbols=plan.symbols,
                               scope=plan.scope())
        (f,) = [x for x in findings if x.rule == "FS001"]
        assert f.scope == "psums/bad-fs/t4"
        assert f.objects == [f"psum[t{t}]" for t in range(4)]

    def test_scope_changes_fingerprint(self, linter):
        w = get_workload("psums")
        cfg = RunConfig(threads=4, mode="bad-fs", size=2000)
        trace = w.trace(cfg)
        a = linter.lint(trace, scope="scope-a")
        b = linter.lint(trace, scope="scope-b")
        assert a and b
        assert a[0].fingerprint != b[0].fingerprint


class TestFindingIdentityRendering:
    def test_render_includes_objects_and_id(self):
        f = Finding("FS006", "error", "packed", [64], [0, 1],
                    "pad", {}, objects=["psum[t0]"], scope="s/t2")
        out = f.render()
        assert "objects: psum[t0]" in out
        assert f"id: {f.fingerprint}" in out

    def test_findings_table_shows_fingerprint(self):
        f = Finding("FS006", "error", "packed", [64], [0],
                    "", {}, objects=["psum[t0]"], scope="s/t2")
        out = findings_table([f])
        assert f.fingerprint in out
        assert "psum[t0]" in out
