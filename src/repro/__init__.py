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

from repro.analysis import SharingLinter, StaticSharingAnalyzer, analyze_trace

from repro.coherence import MachineSpec, MulticoreMachine, SimulationResult
from repro.coherence.machine import SCALED_WESTMERE, WESTMERE_SPEC
from repro.core import FalseSharingDetector, Lab, collect_training_data, select_events
from repro.errors import ReproError
from repro.ml import C45Classifier, ConfusionMatrix, Dataset
from repro.parallel import ExecutionEngine, default_jobs, set_default_jobs
from repro.pmu import TABLE2_EVENTS, Event, EventVector
from repro.trace import ProgramTrace, ThreadTrace
from repro.workloads import Mode, RunConfig, Workload, get_workload

__version__ = "1.0.0"

__all__ = [
    "MachineSpec",
    "MulticoreMachine",
    "SimulationResult",
    "SCALED_WESTMERE",
    "WESTMERE_SPEC",
    "FalseSharingDetector",
    "Lab",
    "collect_training_data",
    "select_events",
    "ReproError",
    "ExecutionEngine",
    "default_jobs",
    "set_default_jobs",
    "C45Classifier",
    "ConfusionMatrix",
    "Dataset",
    "TABLE2_EVENTS",
    "Event",
    "EventVector",
    "ProgramTrace",
    "ThreadTrace",
    "Mode",
    "RunConfig",
    "Workload",
    "get_workload",
    "SharingLinter",
    "StaticSharingAnalyzer",
    "analyze_trace",
    "__version__",
]
