"""Layering: the analysis package sits below the paper's core.

``repro.core`` (the advisor) builds on ``repro.analysis``; the reverse
edge would make importing the static analyzer pull in the detector and
its training stack.  Imports under ``if TYPE_CHECKING:`` and inside
functions do not run at import time and are allowed.
"""

import ast
from pathlib import Path

import pytest

import repro.analysis

ANALYSIS_DIR = Path(repro.analysis.__file__).parent


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
