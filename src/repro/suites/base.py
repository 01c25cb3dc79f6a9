"""Suite-program abstractions: cases, optimization levels, the model base.

A suite program models one Phoenix/PARSEC benchmark as a trace generator
whose sharing behaviour depends on (input set, compiler optimization level,
thread count) — the three axes of the paper's Tables 5-10.  Models encode
*mechanisms* (a packed struct, a registerized accumulator, a hostile matrix
walk, spin-lock waiting), never labels: the classification is produced by
running the trace through the same simulator and classifier as everything
else.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Tuple

import numpy as np

from repro.errors import ConfigError, WorkloadError
from repro.utils.rng import rng_for
from repro.workloads.base import TraceSource

#: Optimization levels and their modeled effects.  ``instr_scale``
#: multiplies instruction counts (unoptimized code executes more of them);
#: ``registerized`` says whether the compiler keeps loop accumulators in
#: registers — the effect that fixed linear_regression's false sharing at
#: -O2 but could not fix streamcluster's (paper Section 4.3).
OPT_LEVELS: Dict[str, Dict[str, object]] = {
    "-O0": {"instr_scale": 1.9, "registerized": False},
    "-O1": {"instr_scale": 1.25, "registerized": False},
    "-O2": {"instr_scale": 1.0, "registerized": True},
    "-O3": {"instr_scale": 0.96, "registerized": True},
}


def opt_effects(opt: str) -> Dict[str, object]:
    try:
        return OPT_LEVELS[opt]
    except KeyError:
        raise ConfigError(f"unknown optimization level {opt!r}") from None


@dataclass(frozen=True)
class SuiteCase:
    """One cell of a benchmark's case grid."""

    input_set: str
    opt: str
    threads: int
    rep: int = 0
    seed: int = 0

    def __post_init__(self) -> None:
        opt_effects(self.opt)
        if self.threads < 1:
            raise ConfigError("threads must be >= 1")
        if self.rep < 0:
            raise ConfigError("rep must be >= 0")

    def with_(self, **kw) -> "SuiteCase":
        return replace(self, **kw)

    def run_id(self) -> str:
        return (f"{self.input_set}-{self.opt}-t{self.threads}"
                f"-s{self.seed}-r{self.rep}")


class SuiteProgram(TraceSource):
    """Base class for Phoenix / PARSEC benchmark models."""

    trace_span = "suites.trace"
    trace_counter = "suites.traces"

    name: str = "abstract"
    suite: str = "phoenix"
    inputs: Tuple[str, ...] = ()
    opts: Tuple[str, ...] = ("-O0", "-O1", "-O2")
    threads: Tuple[int, ...] = (3, 6, 9, 12)
    #: Thread counts usable by the 8-thread-limited verification tool.
    verify_threads: Tuple[int, ...] = ()
    #: Inputs excluded from verification (e.g. PARSEC "native": too slow).
    verify_exclude_inputs: Tuple[str, ...] = ()
    #: Individual cases excluded from verification (build/run quirks).
    verify_exclude_cases: Tuple[Tuple[str, str, int], ...] = ()
    #: True when repeated runs re-execute different computations
    #: (spin-lock nondeterminism).
    nondeterministic: bool = False
    description: str = ""

    # ----------------------------------------------------------------- grid

    def cases(self, rep: int = 0, seed: int = 0) -> List[SuiteCase]:
        """The full classification grid (the paper's "all cases")."""
        return [
            SuiteCase(i, o, t, rep=rep, seed=seed)
            for i in self.inputs
            for o in self.opts
            for t in self.threads
        ]

    def verification_cases(self, rep: int = 0, seed: int = 0) -> List[SuiteCase]:
        """The subset the Zhao-style tool can verify (<= 8 threads, etc.)."""
        vt = self.verify_threads or tuple(t for t in self.threads if t <= 8)
        out = []
        for i in self.inputs:
            if i in self.verify_exclude_inputs:
                continue
            for o in self.opts:
                for t in vt:
                    if (i, o, t) in self.verify_exclude_cases:
                        continue
                    out.append(SuiteCase(i, o, t, rep=rep, seed=seed))
        return out

    # ---------------------------------------------------------------- trace

    def validate(self, case: SuiteCase) -> None:
        if case.input_set not in self.inputs:
            raise WorkloadError(
                f"{self.name}: unknown input {case.input_set!r}"
                f" (have {self.inputs})"
            )
        if case.opt not in self.opts:
            raise WorkloadError(f"{self.name}: unsupported opt {case.opt!r}")

    def _meta(self, case: SuiteCase) -> dict:
        return {
            "workload": self.name,
            "suite": self.suite,
            "input": case.input_set,
            "opt": case.opt,
            "threads": case.threads,
        }

    def cache_key(self, case: SuiteCase) -> tuple:
        key = (case.input_set, case.opt, case.threads, case.seed)
        if self.nondeterministic:
            key = key + (case.rep,)
        return key

    def rng(self, case: SuiteCase, *extra) -> np.random.Generator:
        parts = [self.name, case.input_set, case.opt, case.threads, case.seed]
        if self.nondeterministic:
            parts.append(case.rep)
        return rng_for(*parts, *extra)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name!r}>"
