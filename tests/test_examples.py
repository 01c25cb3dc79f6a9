"""Integrity checks for the example scripts.

Full example runs need the trained pipeline (exercised by the benchmark
harness); here we verify every script parses, imports, and exposes a main()
— the cheap regressions that break examples silently.
"""

import ast
import importlib.util
import sys
from pathlib import Path

import pytest

EXAMPLES = sorted((Path(__file__).parent.parent / "examples").glob("*.py"))
EXAMPLES = [p for p in EXAMPLES if p.name != "__init__.py"]


def _load(path, monkeypatch):
    """Import an example script (its ``__main__`` guard keeps main() idle)."""
    monkeypatch.syspath_prepend(str(path.parent))
    spec = importlib.util.spec_from_file_location(
        f"example_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        sys.modules.pop(spec.name, None)
    return module


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.name)
class TestExamples:
    def test_parses(self, path):
        ast.parse(path.read_text())

    def test_has_module_docstring(self, path):
        tree = ast.parse(path.read_text())
        assert ast.get_docstring(tree), f"{path.name} needs a docstring"

    def test_defines_main_with_guard(self, path):
        src = path.read_text()
        assert "def main(" in src
        assert '__name__ == "__main__"' in src or \
            "__name__ == '__main__'" in src

    def test_imports_resolve(self, path, monkeypatch):
        assert callable(getattr(_load(path, monkeypatch), "main"))


def test_at_least_five_examples():
    assert len(EXAMPLES) >= 5


def test_custom_workload_generates_both_layouts(monkeypatch):
    """The custom-workload example's generator runs on the current loop
    writer (``interleave`` + ``with_sync``), not just imports."""
    from repro import Mode, RunConfig
    from repro.memory.layout import line_of

    path = next(p for p in EXAMPLES if p.name == "custom_workload.py")
    pool = _load(path, monkeypatch).WorkerPoolStats()
    size = 2_000
    errors = len(range(0, size, 37))
    body = 3 * size + 2 * errors
    shared = {}
    for mode in (Mode.GOOD, Mode.BAD_FS):
        tr = pool.trace(RunConfig(threads=2, mode=mode, size=size))
        assert [t.n_accesses for t in tr.threads] == \
            [body + 2 * (body // 4096)] * 2
        w0, w1 = (set(line_of(t.addrs[t.is_write]).tolist())
                  for t in tr.threads)
        shared[mode] = w0 & w1
    # Both layouts share the sync word's line; only the packed one also
    # shares a stats line.
    assert len(shared[Mode.GOOD]) == 1
    assert len(shared[Mode.BAD_FS]) == 2
