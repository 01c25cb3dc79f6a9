"""Layering: the analysis package sits below the paper's core.

``repro.core`` (the advisor) builds on ``repro.analysis``; the reverse
edge would make importing the static analyzer pull in the detector and
its training stack.  More generally, the import-time graph between
``repro`` subpackages has no cycle: a cycle makes the result of
``import repro.X`` depend on what was imported before it.  Imports under
``if TYPE_CHECKING:`` and inside functions do not run at import time and
are allowed.
"""

import ast
from pathlib import Path

import pytest

import repro.analysis

ANALYSIS_DIR = Path(repro.analysis.__file__).parent
REPRO_DIR = ANALYSIS_DIR.parent


def import_time_modules(tree: ast.Module):
    """(lineno, module) for every import that runs when the module loads."""
    out = []

    def visit(node):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return
        if (isinstance(node, ast.If) and isinstance(node.test, ast.Name)
                and node.test.id == "TYPE_CHECKING"):
            for child in node.orelse:
                visit(child)
            return
        if isinstance(node, ast.Import):
            out.extend((node.lineno, a.name) for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            out.append((node.lineno, node.module))
            out.extend((node.lineno, f"{node.module}.{a.name}")
                       for a in node.names)
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(tree)
    return out


def _imports_core(module: str) -> bool:
    return module == "repro.core" or module.startswith("repro.core.")


@pytest.mark.parametrize(
    "path", sorted(ANALYSIS_DIR.glob("*.py")), ids=lambda p: p.name)
def test_analysis_does_not_import_core_at_module_level(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    bad = [f"{path.name}:{line} imports {mod}"
           for line, mod in import_time_modules(tree) if _imports_core(mod)]
    assert not bad, bad


def test_checker_sees_through_type_checking_and_functions():
    tree = ast.parse(
        "from typing import TYPE_CHECKING\n"
        "if TYPE_CHECKING:\n"
        "    from repro.core.detector import FalseSharingDetector\n"
        "def f():\n"
        "    import repro.core.advisor\n"
        "try:\n"
        "    from repro import core\n"
        "except ImportError:\n"
        "    pass\n"
    )
    found = [mod for _, mod in import_time_modules(tree)
             if _imports_core(mod)]
    assert found == ["repro.core"]


def _subpackage(module: str):
    """``analysis`` for ``repro.analysis.sharing``; None outside ``repro``."""
    parts = module.split(".")
    return parts[1] if len(parts) > 1 and parts[0] == "repro" else None


def subpackage_graph():
    """{subpackage: set of other subpackages it imports at import time}."""
    graph = {}
    for path in sorted(REPRO_DIR.rglob("*.py")):
        rel = path.relative_to(REPRO_DIR.parent).with_suffix("")
        src = _subpackage(".".join(rel.parts))
        if src is None or src == "__init__":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        deps = graph.setdefault(src, set())
        for _, mod in import_time_modules(tree):
            dst = _subpackage(mod)
            if dst in (None, src):
                continue
            if ((REPRO_DIR / dst).is_dir()
                    or (REPRO_DIR / f"{dst}.py").exists()):
                deps.add(dst)
    return graph


def find_cycle(graph):
    """One cycle as a node list (first node repeated at the end), or None."""
    state = {}

    def visit(node, stack):
        state[node] = "open"
        stack.append(node)
        for nxt in sorted(graph.get(node, ())):
            if state.get(nxt) == "open":
                return stack[stack.index(nxt):] + [nxt]
            if nxt not in state:
                found = visit(nxt, stack)
                if found:
                    return found
        stack.pop()
        state[node] = "done"
        return None

    for node in sorted(graph):
        if node not in state:
            found = visit(node, [])
            if found:
                return found
    return None


def test_subpackage_import_graph_is_acyclic():
    graph = subpackage_graph()
    assert {"analysis", "memory", "suites", "workloads"} <= set(graph)
    cycle = find_cycle(graph)
    assert cycle is None, " -> ".join(cycle)


def test_cycle_finder_reports_a_cycle():
    assert find_cycle({"a": {"b"}, "b": {"c"}, "c": {"a"}}) == [
        "a", "b", "c", "a"]
    assert find_cycle({"a": {"b"}, "b": set(), "c": {"a", "b"}}) is None
