"""Tests for the trace-free predictive analyzer."""

import pytest

from repro.analysis.sharing import (
    PredictiveAnalyzer,
    StaticSharingAnalyzer,
    predict_plan,
)
from repro.analysis.crosscheck import default_grid, suite_grid
from repro.workloads.base import RunConfig
from repro.workloads.builder import WorkloadBuilder
from repro.workloads.plan import PlanBuilder
from repro.workloads.registry import all_workloads, get_workload


@pytest.fixture(scope="module")
def predictor():
    return PredictiveAnalyzer()


@pytest.fixture(scope="module")
def analyzer():
    return StaticSharingAnalyzer()


def _cfg(w, mode, threads=4):
    t = threads if w.kind == "mt" else 1
    return RunConfig(threads=t, mode=mode, size=w.train_sizes[0],
                     pattern="random")


class TestVerdictParity:
    """The symbolic verdict must match the trace-based one on the grid."""

    @pytest.mark.parametrize(
        "workload", all_workloads(), ids=lambda w: w.name)
    def test_predict_matches_static(self, workload, predictor, analyzer):
        for mode in sorted(workload.modes, key=lambda m: m.value):
            cfg = _cfg(workload, mode)
            pred = predictor.analyze(workload.plan(cfg))
            static = analyzer.analyze(workload.trace(cfg))
            assert pred.verdict == static.verdict, (
                f"{workload.name}/{mode.value}: predicted {pred.verdict}, "
                f"trace says {static.verdict}")


def _parity_cases():
    """Every registry workload × mode, the 19 suite canonical cases and a
    built workload in each mode: 51 ``(generator, case)`` pairs."""
    for w in all_workloads():
        for mode in sorted(w.modes, key=lambda m: m.value):
            yield w, _cfg(w, mode)
    for program, case in suite_grid():
        yield program, case
    built = (WorkloadBuilder("parity", threads_hint=4)
             .stream(elements=6_000)
             .accumulator(fields=2, packed=True, every=3)
             .accumulator(fields=1, packed=False, every=2, field_size=4)
             .gather(table_bytes=4_096, every=5)
             .gather(table_bytes=65_536, every=2, shared=True)
             .stack_traffic(every=3)
             .build())
    for mode in ("bad-fs", "bad-ma", "good"):
        yield built, RunConfig(threads=4, mode=mode, size=6_000)


class TestPlanFidelity:
    def test_counts_match_trace(self):
        # The plan helpers mirror the trace helpers count for count
        # (interleave <-> gather_use/rmw_use, with_sync <-> sync_use), on
        # every thread of every generator that exposes a plan.
        cases = list(_parity_cases())
        assert len(cases) == 51
        mismatches = []
        for source, case in cases:
            plan, trace = source.plan(case), source.trace(case)
            got = ([plan.thread_accesses(t) for t in range(plan.nthreads)],
                   plan.total_instructions)
            want = ([t.n_accesses for t in trace.threads],
                    trace.total_instructions)
            if got != want:
                mismatches.append((trace.name, got, want))
        assert mismatches == []

    def test_fs_lines_name_the_slots(self, predictor):
        w = get_workload("psums")
        pred = predictor.analyze(w.plan(_cfg(w, "bad-fs")))
        assert pred.verdict == "bad-fs"
        hot = pred.false_shared()
        assert hot
        names = {n for pl in hot for n in pl.objects}
        assert any(n.startswith("psum[") for n in names)

    def test_good_mode_clean(self, predictor):
        w = get_workload("psums")
        pred = predictor.analyze(w.plan(_cfg(w, "good")))
        assert pred.verdict == "good"
        assert not pred.false_shared()

    def test_handoff_not_contended(self, predictor):
        # pmatmult/good block-partitions rows: boundary lines are shared
        # but visited at disjoint times — a hand-off, not contention.
        w = get_workload("pmatmult")
        pred = predictor.analyze(w.plan(_cfg(w, "good")))
        assert pred.verdict == "good"

    def test_bad_ma_hostility(self, predictor):
        w = get_workload("seq_rmw")
        pred = predictor.analyze(w.plan(_cfg(w, "bad-ma")))
        assert pred.verdict == "bad-ma"
        assert pred.hostile_threads == [0]


class TestPredictionSurface:
    @pytest.fixture(scope="class")
    def pred(self):
        w = get_workload("psums")
        return predict_plan(w.plan(_cfg(w, "bad-fs")))

    def test_category_counts_cover_all_lines(self, pred):
        counts = pred.category_counts()
        assert sum(counts.values()) == pred.n_lines
        assert counts["false-shared"] >= 1

    def test_object_sharing_ranks_fs_worst(self, pred):
        sharing = pred.object_sharing()
        assert sharing["psum[t0]"] == "false-shared"

    def test_to_dict_stable_surface(self, pred):
        d = pred.to_dict()
        assert d["verdict"] == "bad-fs"
        assert d["category_counts"]["false-shared"] >= 1
        assert all("category" in pl for pl in d["shared_lines"])

    def test_render_mentions_verdict_and_lines(self, pred):
        out = pred.render()
        assert "bad-fs" in out
        assert "false-shared" in out
        assert "0x" in out

    def test_significance_drives_verdict(self, pred):
        assert pred.fs_significance > 0
        assert pred.has_false_sharing


def reference_true_shared_lines(plan):
    """Per-element loop over the true-sharing rule: lines holding a word
    that one thread writes and another touches."""
    touched, written = {}, {}
    for use in plan.uses:
        sym = plan.symbols[use.symbol]
        for i in range(use.start, use.stop, use.step):
            word = (sym.base + i * sym.effective_stride) >> 2
            touched.setdefault(word, set()).add(use.tid)
            if use.writes:
                written.setdefault(word, set()).add(use.tid)
    return {word >> 4 for word, tids in written.items()
            if touched[word] - tids or len(tids) > 1}


def mixed_plan():
    """T0 writes the even elements of a 3-line array; T1 reads element 0
    (a word conflict on line 0) and writes odd elements of lines 1-2."""
    b = PlanBuilder("mixed", 2)
    a = b.array("a", 8, 24)
    b.use(a, 0, writes=12, start=0, stop=24, step=2)
    b.use(a, 1, reads=4, start=0, stop=1, order="scattered")
    b.use(a, 1, writes=8, start=9, stop=24, step=2)
    return b.finish(ipa=3.0)


class TestWordConflictReference:
    """The vectorised word-conflict test against the per-element loop."""

    def test_matches_loop(self):
        plans = ([w.plan(cfg) for w, cfg in default_grid(threads=(4,))]
                 + [mixed_plan()])
        for plan in plans:
            pred = predict_plan(plan)
            got = {ls.line for ls in pred.shared
                   if ls.category == "true-shared"}
            assert got == reference_true_shared_lines(plan), plan.scope()

    def test_mixed_line_categories(self):
        pred = predict_plan(mixed_plan())
        base = pred.plan.symbols["a"].base // 64
        assert {ls.line - base: ls.category for ls in pred.shared} == {
            0: "true-shared", 1: "false-shared", 2: "false-shared"}
