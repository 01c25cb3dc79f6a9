"""Tests for the address-range symbolizer (Symbol / SymbolTable)."""

import numpy as np
import pytest

from repro.memory.symbols import SYMBOL_KINDS, Symbol, SymbolTable
from repro.analysis.crosscheck import canonical_case
from repro.memory.layout import LINE_SIZE, ArrayLayout, line_of
from repro.suites import all_programs
from repro.workloads.base import RunConfig
from repro.workloads.registry import all_workloads


class TestSymbol:
    def test_geometry(self):
        s = Symbol("acc", base=4096, size=32, elem_size=8)
        assert s.end == 4128
        assert s.length == 4
        assert s.first_line == 64
        assert s.last_line == 64

    def test_straddling_lines(self):
        s = Symbol("buf", base=4156, size=16, elem_size=4)
        assert s.first_line == 64
        assert s.last_line == 65

    def test_strided_length(self):
        s = Symbol("padded", base=0, size=3 * 64 + 8, elem_size=8, stride=64)
        assert s.length == 4
        assert s.layout().addr(1) == 64

    def test_covers_and_overlaps(self):
        s = Symbol("x", base=100, size=8)
        assert s.covers(100) and s.covers(107)
        assert not s.covers(108)
        assert s.overlaps_line(1)
        assert not s.overlaps_line(2)

    def test_field_label(self):
        s = Symbol("psum", base=4096, size=32)
        assert s.field_label(4096) == "psum"
        assert s.field_label(4104) == "psum+8"
        with pytest.raises(ValueError):
            s.field_label(4095)

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            Symbol("x", base=-1, size=8)
        with pytest.raises(ValueError):
            Symbol("x", base=0, size=8, kind="heap")
        with pytest.raises(ValueError):
            Symbol("x", base=0, size=8, elem_size=0)

    def test_to_dict_kinds(self):
        for kind in SYMBOL_KINDS:
            d = Symbol("x", base=64, size=8, kind=kind, tid=2).to_dict()
            assert d["kind"] == kind
            assert d["tid"] == 2
            assert d["lines"] == [1, 1]


class TestSymbolTable:
    @pytest.fixture()
    def table(self):
        t = SymbolTable()
        t.add_region("sync", 4096, 8, kind="sync")
        t.add_array("data", ArrayLayout(base=4160, elem_size=8, length=16),
                    tid=None)
        t.add(Symbol("slot[t0]", 4288, 8, kind="slot", tid=0, group="slot"))
        t.add(Symbol("slot[t1]", 4296, 8, kind="slot", tid=1, group="slot"))
        return t

    def test_container_protocol(self, table):
        assert len(table) == 4
        assert "data" in table
        assert table["data"].size == 128
        assert sorted(s.name for s in table)[0] == "data"

    def test_duplicate_name_rejected(self, table):
        with pytest.raises(ValueError):
            table.add_region("data", 8192, 8)

    def test_resolve(self, table):
        assert [s.name for s in table.resolve(4100)] == ["sync"]
        assert table.resolve(4104) == []

    def test_objects_on_line_collision(self, table):
        # both slots live on line 67 (0x10c0)
        hits = table.objects_on_line(4290)
        assert [s.name for s in hits] == ["slot[t0]", "slot[t1]"]

    def test_line_owners_matches_objects_on_line(self, table):
        line = int(line_of(4290))
        assert (table.line_owners(line)
                == table.objects_on_line(line * LINE_SIZE))

    def test_lines_cover_all_symbols(self, table):
        lines = table.lines()
        for s in table:
            assert s.first_line in lines and s.last_line in lines

    def test_label_fallbacks(self, table):
        assert table.label(4168) == "data+8"
        # allocator padding on a symbol's line attributes to the symbol
        assert table.label(4104) == "sync~"
        assert table.label(1 << 30) == f"0x{1 << 30:x}"

    def test_index_invalidated_on_add(self, table):
        table.objects_on_line(4290)  # build the index
        table.add(Symbol("late", 4290 + LINE_SIZE * 10, 8))
        assert "late" in {s.name for s in
                          table.objects_on_line(4290 + LINE_SIZE * 10)}

    def test_render_and_dict(self, table):
        out = table.render()
        assert "slot[t0]" in out and "T1" in out
        d = table.to_dict()
        assert d["n_symbols"] == 4
        bases = [e["base"] for e in d["symbols"]]
        assert bases == sorted(bases)


def _orphan_lines(workload, cfg):
    """Traced lines of one case that no symbol of its plan owns."""
    plan = workload.plan(cfg)
    trace = workload.trace(cfg)
    traced = np.unique(np.concatenate(
        [line_of(th.addrs) for th in trace.threads]))
    return [hex(int(x) * LINE_SIZE) for x in traced.tolist()
            if not plan.symbols.line_owners(int(x))]


class TestRegistryCoverage:
    """Acceptance: every traced line of every registry workload and every
    suite program resolves to at least one named object via the plan's
    symbol table."""

    @pytest.mark.parametrize(
        "workload", all_workloads(), ids=lambda w: w.name)
    def test_every_traced_line_symbolized(self, workload):
        t = 4 if workload.kind == "mt" else 1
        for mode in sorted(workload.modes, key=lambda m: m.value):
            cfg = RunConfig(threads=t, mode=mode,
                            size=workload.train_sizes[0], pattern="random")
            orphans = _orphan_lines(workload, cfg)
            assert not orphans, (
                f"{workload.name}/{mode.value}: traced lines without a "
                f"named object: {orphans}")

    @pytest.mark.parametrize(
        "program", all_programs(), ids=lambda p: p.name)
    def test_every_suite_traced_line_symbolized(self, program):
        case = canonical_case(program)
        orphans = _orphan_lines(program, case)
        assert not orphans, (
            f"{program.name}[{case.run_id()}]: traced lines without a "
            f"named object: {orphans}")
