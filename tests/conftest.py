"""Shared fixtures.

Unit tests use hermetic labs (no disk cache).  A handful of heavier
integration tests share the session-scoped ``mini_lab`` so its simulation
cache amortizes across files.
"""

from __future__ import annotations

import multiprocessing

import numpy as np
import pytest

from repro.coherence.machine import MachineSpec, MulticoreMachine
from repro.core.lab import Lab


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def machine():
    """A fresh scaled-geometry machine for simulator unit tests."""
    return MulticoreMachine(spec=SMALL_SPEC)


#: Tiny but valid geometry: fast unit tests with real set/assoc behaviour.
SMALL_SPEC = MachineSpec(
    cores=4,
    sockets=2,
    l1_kib=4,
    l1_assoc=4,
    l2_kib=16,
    l2_assoc=8,
    l3_mib=1,
    l3_assoc=16,
    tlb_entries=8,
    name="unit-test-spec",
)


@pytest.fixture
def small_spec():
    return SMALL_SPEC


@pytest.fixture(scope="session")
def mini_lab():
    """Session-shared lab over the scaled Westmere (in-memory cache only)."""
    return Lab(disk_cache=None)


@pytest.fixture
def hermetic_lab():
    return Lab(disk_cache=None)


def pytest_sessionfinish(session, exitstatus):
    """Fail the session if a test left a child process running.

    A leaked fleet worker or pool process then shows up as a red run that
    names it, instead of a process that outlives the suite; it is
    terminated here either way.
    """
    leaked = multiprocessing.active_children()
    if not leaked:
        return
    reporter = session.config.pluginmanager.get_plugin("terminalreporter")
    for proc in leaked:
        line = f"leaked child process: {proc.name} (pid {proc.pid})"
        if reporter is not None:
            reporter.write_line(line, red=True)
        proc.terminate()
        proc.join(timeout=10.0)
        if proc.is_alive():
            proc.kill()
            proc.join(timeout=5.0)
    session.exitstatus = pytest.ExitCode.TESTS_FAILED
