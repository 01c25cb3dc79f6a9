"""The offline pipeline, case by case: trace -> drive -> pmu -> classify -> verify.

Each case is one program run the detector must judge, as in the paper's
Tables 5 and 10: generate the program's memory trace, drive it through the
MESI machine model, read the Table 2 events off the PMU model, classify
the normalized vector with the committed C4.5 tree, and check the verdict
with the shadow-memory oracle.  Nothing is cached between cases, so every
case pays every layer.

A run sweeps its pool of cases repeatedly.  Each sweep visits every case
once, in an order drawn from the seed, with the seed also feeding the
workloads' own generators and the PMU noise; the work per sweep is the
same for every seed, so seeds change the inputs but not their cost.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ledger import Ledger


@dataclass(frozen=True)
class Case:
    """One program run with its expected tree verdict and oracle verdict."""

    program: str
    suite: bool
    threads: int
    size: str          # problem size (mini-programs) or input set (suites)
    mode: str          # mini-program mode, or optimisation level for suites
    label: str         # the tree verdict the paper's method gives
    false_sharing: bool  # the shadow oracle's verdict
    pattern: str = "random"

    @property
    def tag(self) -> str:
        return f"{self.program}/{self.mode}/t{self.threads}"

    def trace(self, seed: int):
        if self.suite:
            from repro.suites import get_program
            from repro.suites.base import SuiteCase

            return get_program(self.program).trace(
                SuiteCase(self.size, self.mode, self.threads, seed=seed))
        from repro.workloads.base import RunConfig
        from repro.workloads.registry import get_workload

        return get_workload(self.program).trace(RunConfig(
            threads=self.threads, mode=self.mode, size=int(self.size),
            pattern=self.pattern, seed=seed))


def _mini(program, mode, threads, size, label=None, pattern="random"):
    label = label or mode
    return Case(program, False, threads, str(size), mode, label,
                mode == "bad-fs", pattern)


def _suite(program, input_set, opt, threads, label):
    return Case(program, True, threads, input_set, opt, label,
                label == "bad-fs")


#: Programs with false sharing.  Every run has lines that several threads
#: write, so the drive takes the line-partitioned kernel and the oracle's
#: scalar walk sees every invalidation.
CONTENDED = (
    _mini("psums", "bad-fs", 4, 1500),
    _mini("padding", "bad-fs", 4, 1500),
    _mini("false1", "bad-fs", 4, 3000),
    _mini("count", "bad-fs", 4, 49152),
    _mini("pmatmult", "bad-fs", 4, 12),
    _mini("pmatcompare", "bad-fs", 4, 96),
    _mini("psumv", "bad-fs", 4, 8192),
    _suite("streamcluster", "simsmall", "-O1", 4, "bad-fs"),
)

#: Programs without false sharing: streaming and private data (the drive
#: takes run compression, the oracle drops private lines before its walk)
#: and cache-hostile orders that fall back to the scalar reference loop.
PRIVATE = (
    _mini("seq_read", "good", 1, 32768),
    _mini("seq_rmw", "good", 1, 32768),
    _mini("seq_write", "bad-ma", 1, 12288, pattern="stride16"),
    _mini("psums", "good", 4, 12000),
    _mini("pdot", "good", 4, 8192),
    _mini("count", "bad-ma", 4, 16384),
    _suite("word_count", "small", "-O0", 3, "good"),
)

POOLS = {"contended": CONTENDED, "private": PRIVATE}


class OfflinePipeline:
    """Runs cases through every offline layer and checks each verdict."""

    def __init__(self, compiled, root, seed: int,
                 ledger: Optional[Ledger] = None) -> None:
        from repro.baselines.shadow import ShadowMemoryDetector
        from repro.coherence.machine import MulticoreMachine, SCALED_WESTMERE
        from repro.core.training import FEATURES
        from repro.pmu.events import TABLE2_EVENTS
        from repro.pmu.sampler import PMUSampler

        self.compiled = compiled
        self.root = root
        self.seed = seed
        self.ledger = ledger
        self.machine = MulticoreMachine(SCALED_WESTMERE)
        self.sampler = PMUSampler(seed=seed)
        self.oracle = ShadowMemoryDetector()
        self.events = TABLE2_EVENTS
        self.features = FEATURES
        self.failures: List[str] = []
        self.cases_run = 0
        self.failed_cases = 0

    def _timed(self, name: str, fn, *args):
        if self.ledger is None:
            return fn(*args)
        t0 = time.perf_counter()
        out = fn(*args)
        self.ledger.add(name, time.perf_counter() - t0)
        return out

    def run_case(self, case: Case, case_seed: int):
        """One case through all five layers; returns its simulation result."""
        prog = self._timed("trace", case.trace, case_seed)
        result = self._timed("drive", self.machine.run, prog)
        vec = self._timed("pmu", self.sampler.measure, result, self.events,
                          f"{case.tag}-{case_seed}")
        x = vec.features(self.features)[None, :]
        label = str(self._timed("classify", self.compiled.predict_batch,
                                x)[0])
        report = self._timed("verify", self.oracle.run, prog)

        self.cases_run += 1
        known = len(self.failures)
        if sum(result.instructions_per_core) != prog.total_instructions:
            self.failures.append(f"{case.tag}: drive lost instructions")
        if label != self.root.predict_one(x[0]):
            self.failures.append(f"{case.tag}: compiled tree disagrees "
                                 "with the recursive walk")
        if label != case.label:
            self.failures.append(f"{case.tag}: classified {label}, "
                                 f"expected {case.label}")
        if report.has_false_sharing != case.false_sharing:
            self.failures.append(f"{case.tag}: oracle verdict "
                                 f"{report.has_false_sharing}")
        self.failed_cases += len(self.failures) > known
        return result

    def sweep(self, pool, sweep_no: int
              ) -> Tuple[Dict[str, float], Dict[str, object]]:
        """Every case of ``pool`` once, in a seed-drawn order.

        Returns each case's wall time and simulation result, by case tag.
        """
        rng = np.random.default_rng([self.seed, sweep_no])
        times, results = {}, {}
        for i in rng.permutation(len(pool)):
            case = pool[i]
            t0 = time.perf_counter()
            results[case.tag] = self.run_case(
                case, self.seed * 1000 + sweep_no)
            times[case.tag] = time.perf_counter() - t0
        return times, results
