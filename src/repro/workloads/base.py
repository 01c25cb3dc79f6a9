"""Workload abstractions: modes, run configuration, and the base class.

A workload is a deterministic trace generator: ``trace(config)`` returns the
per-thread memory-access streams the equivalent C program would produce.  The
three modes mirror the paper's Section 2.1:

* ``good``    — private/padded data, linear access;
* ``bad-fs``  — per-thread data packed into shared cache lines;
* ``bad-ma``  — same computation, cache-hostile access order.

Modes never change the amount of computation: a mode flips data *placement*
(good vs bad-fs) or visit *order* (good vs bad-ma), so instruction and access
counts match across modes and only the hardware events differ — which is the
property that makes normalized event counts a fair classification signal.
"""

from __future__ import annotations

import enum
from abc import ABC, abstractmethod
from dataclasses import dataclass, replace
from typing import FrozenSet, Sequence, Tuple

import numpy as np

from repro.errors import ConfigError, WorkloadError
from repro.telemetry.core import TELEMETRY
from repro.trace.access import ProgramTrace, ThreadTrace
from repro.utils.rng import rng_for


class Mode(str, enum.Enum):
    """The paper's three-way operating mode of a mini-program."""

    GOOD = "good"
    BAD_FS = "bad-fs"
    BAD_MA = "bad-ma"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


#: Access patterns for bad-ma / sequential workloads (Section 2.2.2).
PATTERNS = ("linear", "random", "stride2", "stride4", "stride8", "stride16")


def parse_mode(value) -> Mode:
    """Accept a Mode or its string form."""
    if isinstance(value, Mode):
        return value
    try:
        return Mode(value)
    except ValueError:
        raise ConfigError(f"unknown mode: {value!r}") from None


def stride_of(pattern: str) -> int:
    """Stride length for a ``strideN`` pattern name (1 for linear)."""
    if pattern == "linear":
        return 1
    if pattern.startswith("stride"):
        try:
            s = int(pattern[len("stride"):])
        except ValueError:
            raise ConfigError(f"bad stride pattern: {pattern!r}") from None
        if s <= 1:
            raise ConfigError(f"stride must be > 1: {pattern!r}")
        return s
    raise ConfigError(f"pattern {pattern!r} has no stride")


@dataclass(frozen=True)
class RunConfig:
    """Everything that determines one program run.

    ``size`` is the problem size in workload-specific units (iterations per
    thread for scalar programs, total elements for vector programs, matrix
    dimension for matrix programs).  ``pattern`` selects the bad-ma access
    order; ``rep`` distinguishes repeated runs of the same configuration
    (it perturbs only measurement noise seeds, never the computation).
    """

    threads: int = 1
    mode: Mode = Mode.GOOD
    size: int = 1 << 14
    pattern: str = "random"
    seed: int = 0
    rep: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "mode", parse_mode(self.mode))
        if self.threads < 1:
            raise ConfigError("threads must be >= 1")
        if self.size < 1:
            raise ConfigError("size must be >= 1")
        if self.pattern not in PATTERNS:
            raise ConfigError(
                f"pattern {self.pattern!r} not one of {PATTERNS}"
            )
        if self.rep < 0:
            raise ConfigError("rep must be >= 0")

    def with_(self, **kw) -> "RunConfig":
        return replace(self, **kw)

    def run_id(self) -> str:
        """Stable identifier for seeding measurement noise."""
        return (
            f"t{self.threads}-{self.mode.value}-n{self.size}"
            f"-{self.pattern}-s{self.seed}-r{self.rep}"
        )


class TraceSource(ABC):
    """The one front door to a trace generator: :meth:`trace` and :meth:`plan`.

    Both validate the case, then :meth:`trace` runs :meth:`_generate` under
    a ``trace_span`` telemetry span (counted under ``trace_counter``) and
    wraps the threads in a :class:`ProgramTrace`, while :meth:`plan` runs
    :meth:`_plan`; both stamp the class's :meth:`_meta` (the trace also
    records ``rep``).
    """

    name: str = "abstract"
    trace_span = "workloads.trace"
    trace_counter = "workloads.traces"

    @abstractmethod
    def validate(self, case) -> None:
        """Reject cases this generator cannot run."""

    @abstractmethod
    def _meta(self, case) -> dict:
        """What the case is, as trace and plan metadata."""

    @abstractmethod
    def _generate(self, case) -> Sequence[ThreadTrace]:
        """Produce one ThreadTrace per thread (already validated case)."""

    def trace(self, case) -> ProgramTrace:
        """Generate the program trace for this case."""
        self.validate(case)
        tel = TELEMETRY
        if tel.enabled:
            with tel.span(self.trace_span, program=self.name,
                          case=case.run_id()) as sp:
                threads = self._generate(case)
                sp.set(accesses=int(sum(t.n_accesses for t in threads)))
            tel.count(self.trace_counter)
        else:
            threads = self._generate(case)
        return ProgramTrace(
            list(threads),
            name=f"{self.name}[{case.run_id()}]",
            meta={**self._meta(case), "rep": case.rep},
        )

    def plan(self, case):
        """Symbolic access plan for this case (no trace generated).

        Returns an :class:`repro.workloads.plan.AccessPlan` mirroring what
        :meth:`trace` would produce: the same allocator layout (as named
        symbols) and per-thread region accesses, without materializing a
        single address.  Raises :class:`WorkloadError` for generators that
        do not expose a plan.
        """
        self.validate(case)
        plan = self._plan(case)
        for key, value in self._meta(case).items():
            plan.meta.setdefault(key, value)
        return plan.validate()

    def _plan(self, case):
        raise WorkloadError(
            f"{self.name} does not expose a symbolic access plan"
        )


class Workload(TraceSource):
    """Base class for the mini-programs and :class:`BuiltWorkload`.

    (Suite models derive from :class:`repro.suites.base.SuiteProgram`.)
    """

    #: Unique registry name, e.g. "pdot".
    name: str = "abstract"
    #: "mt" (multi-threaded mini-program) or "seq" (sequential).
    kind: str = "mt"
    #: Modes this workload supports.
    modes: FrozenSet[Mode] = frozenset({Mode.GOOD})
    #: Problem sizes used when collecting training data.
    train_sizes: Tuple[int, ...] = ()
    description: str = ""

    def validate(self, cfg: RunConfig) -> None:
        """Reject configurations this workload cannot run."""
        if cfg.mode not in self.modes:
            raise WorkloadError(
                f"{self.name} does not support mode {cfg.mode.value}"
            )
        if self.kind == "seq" and cfg.threads != 1:
            raise WorkloadError(f"{self.name} is sequential; threads must be 1")
        # Note bad-fs with one thread is allowed: the packed layout is
        # harmless then (Table 1's Method 2 at T=1 runs at Method 1 speed).

    def _meta(self, cfg: RunConfig) -> dict:
        return {
            "workload": self.name,
            "kind": self.kind,
            "mode": cfg.mode.value,
            "threads": cfg.threads,
            "size": cfg.size,
            "pattern": cfg.pattern,
        }

    def cache_key(self, cfg: RunConfig) -> tuple:
        """Simulation-cache key: everything that changes the computation.

        ``rep`` is deliberately excluded — repeats change measurement noise
        only.
        """
        return (cfg.threads, cfg.mode, cfg.size, cfg.pattern, cfg.seed)

    def rng(self, cfg: RunConfig, *extra) -> np.random.Generator:
        """Deterministic generator for this (workload, config) pair.

        Note ``rep`` is deliberately excluded: repeated runs perform the
        same computation; only measurement differs.
        """
        return rng_for(self.name, cfg.threads, cfg.mode.value, cfg.size,
                       cfg.pattern, cfg.seed, *extra)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name!r}>"


def partition(total: int, parts: int) -> list:
    """Split ``total`` items into ``parts`` contiguous (start, stop) ranges."""
    if parts <= 0:
        raise ConfigError("parts must be positive")
    base, extra = divmod(total, parts)
    bounds = []
    start = 0
    for i in range(parts):
        stop = start + base + (1 if i < extra else 0)
        bounds.append((start, stop))
        start = stop
    return bounds


#: Instruction weight shared by the accumulator-loop mini-programs so that
#: good / bad-fs / bad-ma runs of one program retire equal instruction counts.
LOOP_IPA = 3.0


def ordered_visit(
    n: int, mode: Mode, pattern: str, rng: np.random.Generator
) -> np.ndarray:
    """Visit order of ``n`` items: linear for good/bad-fs, hostile for bad-ma.

    bad-ma preserves the same-computation property: strides co-prime with n
    and permutations both visit every index exactly once per sweep.
    """
    idx = np.arange(n, dtype=np.int64)
    if mode is not Mode.BAD_MA:
        return idx
    if pattern == "random":
        return rng.permutation(n).astype(np.int64)
    stride = stride_of(pattern)
    # Walk in `stride` interleaved passes so each index appears once.
    return np.concatenate(
        [np.arange(s, n, stride, dtype=np.int64) for s in range(stride)]
    )
