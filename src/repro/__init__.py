"""repro: a full reproduction of "Detection of False Sharing Using Machine
Learning" (Jayasena et al., SC'13) on a simulated Westmere DP substrate.

Public API quick tour::

    from repro import Lab, FalseSharingDetector, RunConfig, get_workload

    lab = Lab()                                  # simulated 12-core testbed
    det = FalseSharingDetector(lab).fit()        # collect + train (Sec. 2-3)
    pdot = get_workload("pdot")                  # Figure 1's dot product
    result = det.classify(pdot, RunConfig(threads=6, mode="bad-fs",
                                          size=196_608))
    assert result.label == "bad-fs"

Subpackages: ``coherence`` (MESI multicore simulator), ``pmu`` (events and
counters), ``workloads`` (mini-programs), ``suites`` (Phoenix/PARSEC
models), ``ml`` (C4.5/J48 from scratch), ``core`` (the paper's method),
``baselines`` (shadow-memory oracle, SHERIFF), ``analysis`` (one
simulation-free sharing classifier behind trace and plan front-ends, lint
rules, cross-detector harness),
``experiments`` (one entry per paper table/figure).
"""

from importlib import import_module

__version__ = "1.0.0"

#: Public name -> defining module.  Resolved on first attribute access
#: (PEP 562), so ``import repro.serve.server`` in a serving worker does not
#: load the simulator, the analyzers or the training stack.
_EXPORTS = {
    "MachineSpec": "repro.coherence",
    "MulticoreMachine": "repro.coherence",
    "SimulationResult": "repro.coherence",
    "SCALED_WESTMERE": "repro.coherence.machine",
    "WESTMERE_SPEC": "repro.coherence.machine",
    "FalseSharingDetector": "repro.core",
    "Lab": "repro.core",
    "collect_training_data": "repro.core",
    "select_events": "repro.core",
    "ReproError": "repro.errors",
    "ExecutionEngine": "repro.parallel",
    "default_jobs": "repro.parallel",
    "set_default_jobs": "repro.parallel",
    "C45Classifier": "repro.ml",
    "ConfusionMatrix": "repro.ml",
    "Dataset": "repro.ml",
    "TABLE2_EVENTS": "repro.pmu",
    "Event": "repro.pmu",
    "EventVector": "repro.pmu",
    "ProgramTrace": "repro.trace",
    "ThreadTrace": "repro.trace",
    "Mode": "repro.workloads",
    "RunConfig": "repro.workloads",
    "Workload": "repro.workloads",
    "get_workload": "repro.workloads",
    "SharingLinter": "repro.analysis",
    "StaticSharingAnalyzer": "repro.analysis",
    "analyze_trace": "repro.analysis",
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module 'repro' has no attribute {name!r}")
    value = getattr(import_module(module), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
