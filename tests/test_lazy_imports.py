"""``import repro`` resolves its public names lazily (PEP 562).

A serving worker imports only the model loader, the compiled tree and the
server; none of that may pull in the simulator, the analyzers or the
training stack through the package's ``__init__``.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = str(Path(repro.__file__).resolve().parents[1])


def test_worker_imports_leave_simulator_stack_unloaded():
    code = ("import sys, repro.ml.persistence, repro.serve.inference, "
            "repro.serve.server; print(sorted(m for m in ('repro.analysis', "
            "'repro.core', 'repro.coherence') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": SRC})
    assert out.stdout.strip() == "[]"


def test_public_names_resolve():
    from repro import Lab
    from repro.core.lab import Lab as CoreLab

    assert Lab is CoreLab
    assert "Lab" in dir(repro)
    for name in repro.__all__:
        assert getattr(repro, name) is not None


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        repro.nope  # noqa: B018


def test_importing_the_simulator_builds_no_library():
    # The compiled drive loop is built and loaded on the first native
    # drive call, never on import.
    code = ("import repro.coherence; from repro.coherence import native; "
            "print(native.load.cache_info().currsize)")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": SRC})
    assert out.stdout.strip() == "0"
