"""Shared pipeline state for all experiments.

Training the detector and classifying two benchmark suites is expensive;
every table/figure experiment needs some slice of it.  A
:class:`PipelineContext` computes each artifact once (lazily) and caches the
slow external-tool results (shadow-memory rates) on disk next to the
simulation cache (both are :class:`repro.cache.ResultCache` instances).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.baselines.shadow import ShadowMemoryDetector, ShadowReport
from repro.cache import ResultCache
from repro.core.detector import FalseSharingDetector
from repro.core.lab import Lab
from repro.core.training import TrainingData, collect_training_data
from repro.parallel import ExecutionEngine
from repro.pmu.events import TABLE2_EVENTS
from repro.suites import all_programs, get_program
from repro.suites.base import SuiteCase, SuiteProgram
from repro.telemetry.core import TELEMETRY
from repro.utils.stats import majority, tally
from repro.versioning import SHADOW_VERSION, SIM_VERSION

#: Probability that a benchmark-classification measurement was polluted by
#: background activity.  Real collection isn't sterile: the paper saw one
#: unexplained bad-ma cell in linear_regression and attributes it to error.
SUITE_INTERFERENCE = 0.004


def _valid_shadow_entry(value: Any) -> Optional[Tuple[int, ...]]:
    """The shadow cache's ``admit``: 4 integer counts as a tuple, else None."""
    if (isinstance(value, (tuple, list)) and len(value) == 4
            and all(isinstance(v, int) and not isinstance(v, bool)
                    for v in value)):
        return tuple(value)
    return None


@dataclass
class ClassifiedProgram:
    """All case-level labels for one suite program."""

    name: str
    labels: Dict[SuiteCase, str]
    seconds: Dict[SuiteCase, float]

    @property
    def overall(self) -> str:
        return majority(self.labels.values())

    def tally(self) -> Dict[str, int]:
        return tally(self.labels.values())


@dataclass
class VerifiedProgram:
    """Table 10 row: oracle vs detector on the verification subset."""

    name: str
    cases: int
    actual_fs: int
    actual_no_fs: int
    detected_fs: int
    detected_no_fs: int
    #: per-case detail: (case, oracle_rate, our_label)
    detail: List[Tuple[SuiteCase, float, str]]


class PipelineContext:
    """Lazily computed, shared artifacts of the full reproduction pipeline."""

    def __init__(
        self,
        lab: Optional[Lab] = None,
        jobs: Optional[int] = None,
        engine: Optional[ExecutionEngine] = None,
    ) -> None:
        self.lab = lab or Lab()
        self.engine = engine or ExecutionEngine(jobs)
        #: The oracle used for verification; replaceable (e.g. ``fast=False``
        #: selects its reference scalar loop for A/B measurements).
        self.shadow = ShadowMemoryDetector()
        self._training: Optional[TrainingData] = None
        self._detector: Optional[FalseSharingDetector] = None
        self._classified: Dict[str, ClassifiedProgram] = {}
        self._verified: Dict[str, VerifiedProgram] = {}
        sim_path = self.lab.sim_cache.path  # the oracle cache sits beside it
        self.shadow_cache = ResultCache(
            "shadow", (SIM_VERSION, SHADOW_VERSION), _valid_shadow_entry,
            None if sim_path is None else sim_path.with_name(
                f"shadow-{self.lab.spec.name}-c{self.lab.chunk}"
                f"-{SIM_VERSION}-{SHADOW_VERSION}.pkl"))

    # ------------------------------------------------------------- training

    @property
    def training(self) -> TrainingData:
        if self._training is None:
            with TELEMETRY.span("pipeline.training"):
                self._training = collect_training_data(self.lab,
                                                       engine=self.engine)
                self.lab.flush()
        return self._training

    @property
    def detector(self) -> FalseSharingDetector:
        if self._detector is None:
            det = FalseSharingDetector(self.lab)
            det.fit(training=self.training)
            self._detector = det
        return self._detector

    # --------------------------------------------------------- classification

    def classify_program(self, name: str) -> ClassifiedProgram:
        if name not in self._classified:
            program = get_program(name)
            det = self.detector
            with TELEMETRY.span("pipeline.classify", program=name) as sp:
                self.engine.prefetch_simulations(
                    self.lab, [(program, case) for case in program.cases()]
                )
                labels: Dict[SuiteCase, str] = {}
                seconds: Dict[SuiteCase, float] = {}
                for case in program.cases():
                    vec = self.lab.measure(
                        program, case, TABLE2_EVENTS,
                        interference_p=SUITE_INTERFERENCE,
                    )
                    labels[case] = det.classify_vector(vec)
                    seconds[case] = float(vec.meta.get("seconds", 0.0))
                sp.set(cases=len(labels))
            self._classified[name] = ClassifiedProgram(name, labels, seconds)
            self.lab.flush()
        return self._classified[name]

    def classify_all(self) -> Dict[str, ClassifiedProgram]:
        # One engine-wide prefetch over every program's grid beats
        # per-program batches: the pool stays saturated across the seams.
        self.engine.prefetch_simulations(
            self.lab,
            [(program, case)
             for program in all_programs()
             if program.name not in self._classified
             for case in program.cases()],
        )
        for program in all_programs():
            self.classify_program(program.name)
        return dict(self._classified)

    # ------------------------------------------------------------ shadow oracle

    def shadow_report(self, program: SuiteProgram, case: SuiteCase) -> ShadowReport:
        def run() -> Tuple[int, int, int, int]:
            with TELEMETRY.span("shadow.run", program=program.name,
                                case=case.run_id()):
                return self.shadow.run(program.trace(case),
                                       chunk=self.lab.chunk).counts

        counts = self.shadow_cache.get_or_compute(
            (program.name,) + tuple(program.cache_key(case)), run)
        return ShadowReport(*counts, nthreads=case.threads)

    def shadow_report_store(self, path) -> ShadowReport:
        """Oracle counts for a persisted trace store, cached by digest.

        The cache key is the store's content digest (header field, O(1) to
        read), so the entry survives renames and copies and misses when the
        trace bytes change — the same contract as
        :meth:`repro.core.lab.Lab.simulate_store`.
        """
        from repro.trace.store import open_store

        store = open_store(path)

        def run() -> Tuple[int, int, int, int]:
            with TELEMETRY.span("shadow.run_store", digest=store.digest):
                return self.shadow.run_store(path, chunk=self.lab.chunk).counts

        counts = self.shadow_cache.get_or_compute(
            ("store", store.digest, self.lab.chunk), run)
        return ShadowReport(
            *counts, nthreads=len(list(store.meta.get("threads") or [])) or 1)

    def _prefetch_shadow(
        self, pairs: List[Tuple[SuiteProgram, SuiteCase]]
    ) -> None:
        """Run missing oracle cases across the engine's worker pool."""
        cases: Dict[Tuple, Tuple[str, SuiteCase]] = {}
        for program, case in pairs:
            cases.setdefault((program.name,) + tuple(program.cache_key(case)),
                             (program.name, case))
        keys = self.shadow_cache.missing(cases)
        if self.engine.jobs <= 1 or len(keys) <= 1:
            return
        TELEMETRY.count("shadow.prefetch.dispatched", len(keys))
        reports = self.engine.shadow_batch(
            [cases[k] for k in keys], self.lab.chunk,
            self.shadow.max_threads, fast=self.shadow.fast)
        self.shadow_cache.update(zip(keys, (r.counts for r in reports)))
        self.shadow_cache.flush()

    # ------------------------------------------------------------ verification

    def verify_program(self, name: str) -> VerifiedProgram:
        if name not in self._verified:
            program = get_program(name)
            classified = self.classify_program(name)
            with TELEMETRY.span("pipeline.verify", program=name):
                self._verify_program(name, program, classified)
        return self._verified[name]

    def _verify_program(self, name: str, program: SuiteProgram,
                        classified: ClassifiedProgram) -> None:
        self._prefetch_shadow(
            [(program, case) for case in program.verification_cases()]
        )
        detail: List[Tuple[SuiteCase, float, str]] = []
        actual_fs = detected_fs = 0
        cases = program.verification_cases()
        for case in cases:
            rate = self.shadow_report(program, case).fs_rate
            label = classified.labels.get(case)
            if label is None:
                # Verification grids are subsets of classification grids;
                # classify on demand if a case is outside (defensive).
                vec = self.lab.measure(program, case, TABLE2_EVENTS)
                label = self.detector.classify_vector(vec)
            detail.append((case, rate, label))
            actual_fs += int(rate > 1e-3)
            detected_fs += int(label == "bad-fs")
        n = len(cases)
        self._verified[name] = VerifiedProgram(
            name=name,
            cases=n,
            actual_fs=actual_fs,
            actual_no_fs=n - actual_fs,
            detected_fs=detected_fs,
            detected_no_fs=n - detected_fs,
            detail=detail,
        )
        self.shadow_cache.flush()

    def verify_all(self) -> Dict[str, VerifiedProgram]:
        self._prefetch_shadow(
            [(program, case)
             for program in all_programs()
             if program.name not in self._verified
             for case in program.verification_cases()]
        )
        for program in all_programs():
            self.verify_program(program.name)
        return dict(self._verified)


_DEFAULT_CONTEXT: Optional[PipelineContext] = None


def default_context() -> PipelineContext:
    """The process-wide shared pipeline (used by benches and the CLI).

    Its engine honours :func:`repro.parallel.default_jobs` at construction
    time, so ``set_default_jobs`` (the CLI's ``--jobs``) must run before the
    first call.
    """
    global _DEFAULT_CONTEXT
    if _DEFAULT_CONTEXT is None:
        _DEFAULT_CONTEXT = PipelineContext()
    return _DEFAULT_CONTEXT
