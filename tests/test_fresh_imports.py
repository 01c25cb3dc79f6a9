"""Every ``repro`` subpackage imports first, in a fresh interpreter.

The test session itself imports ``repro.core.lab`` early (conftest), which
loads most packages in a working order and hides import cycles that only
bite a script whose first line is, say, ``from repro.suites import
get_program``.  Each case here starts a new interpreter that imports one
module and nothing else.
"""

import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = str(Path(repro.__file__).resolve().parents[1])

MODULES = (
    ["repro"]
    + [f"repro.{m.name}" for m in pkgutil.iter_modules(repro.__path__)]
    + ["repro.suites.phoenix", "repro.suites.parsec"]
)


@pytest.mark.parametrize("module", MODULES)
def test_imports_first_in_fresh_interpreter(module):
    out = subprocess.run([sys.executable, "-c", f"import {module}"],
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": SRC})
    assert out.returncode == 0, out.stderr
