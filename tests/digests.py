"""Pinned output digests: the generators, the simulator, the oracle and the tree.

A fixed set of traces — the four :func:`repro.telemetry.bench.drive_traces`
and each suite program's :func:`repro.analysis.crosscheck.canonical_case`
— runs through the simulator, the shadow-memory oracle and the committed
tree (``models/detector.json``).  Each layer's outputs are serialized
canonically (sorted keys, floats as ``float.hex``) and hashed with SHA-256,
so a change that alters any simulated count, oracle attribution or label
changes a digest, whichever code path computed it.

Two more layers pin the generators themselves over :func:`generators` (the
pinned traces, every registry workload × mode at its first training size
and :func:`built_workloads` × 3 modes): ``traces`` hashes every thread's
``addrs``, ``is_write``, ``instr_per_access`` and ``extra_instructions``;
``plans`` hashes each symbolic access plan's ``to_dict()``.

``tests/test_output_digests.py`` compares the digests with a table keyed by
``(SIM_VERSION, SHADOW_VERSION)``: a change to the results needs a version
bump (which also retires the disk caches) and a new table row.

Print the current digests with::

    PYTHONPATH=src python -m tests.digests

and, with ``--wide``, the ``traces``/``plans`` digests over the wider
:func:`wide_generators` set (every suite case, every registry workload ×
mode × training size, the crosscheck grid, built workloads × 2 patterns),
which takes about ten seconds.
"""

from __future__ import annotations

import hashlib
import json
import numbers
import sys
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple

import numpy as np

MODEL = Path(__file__).resolve().parent.parent / "models" / "detector.json"


def canon(value: Any) -> Any:
    """``value`` as JSON-ready data that encodes each number exactly."""
    if isinstance(value, dict):
        return [[canon(k), canon(v)] for k, v in
                sorted(value.items(), key=lambda kv: repr(canon(kv[0])))]
    if isinstance(value, (list, tuple)):
        return [canon(v) for v in value]
    if isinstance(value, (bool, str)) or value is None:
        return value
    if isinstance(value, numbers.Integral):
        return int(value)
    return float(value).hex()


def digest(items: List[Any]) -> str:
    """SHA-256 of the canonical JSON of ``items``."""
    text = json.dumps(canon(items), separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def built_workloads() -> List[Any]:
    """Three :class:`~repro.workloads.builder.WorkloadBuilder` workloads
    covering every block: packed and padded accumulators, private and
    shared gathers, stack traffic on and off."""
    from repro.workloads.builder import WorkloadBuilder

    return [
        WorkloadBuilder("pool", threads_hint=4)
        .stream(elements=40_000, elem_size=8)
        .accumulator(fields=2, packed=True, every=1)
        .gather(table_bytes=32_768, every=6)
        .sync(every=4096)
        .build(),
        WorkloadBuilder("histo")
        .stream(elements=30_000)
        .accumulator(fields=1, packed=True, every=3, field_size=4)
        .accumulator(fields=3, packed=False, every=5)
        .gather(table_bytes=65_536, every=2, shared=True)
        .gather(table_bytes=4_096, every=7)
        .stack_traffic(every=3)
        .instructions_per_access(3.5)
        .build(),
        WorkloadBuilder("scan")
        .stream(elements=20_000, elem_size=4, shared=False)
        .stack_traffic(every=0)
        .build(),
    ]


def _source(trace) -> Tuple[Any, Any]:
    """The ``(generator, case)`` that produced a registry or suite trace."""
    from repro.suites import get_program
    from repro.suites.base import SuiteCase
    from repro.workloads.base import RunConfig
    from repro.workloads.registry import get_workload

    m = trace.meta
    if "suite" in m:
        source, case = get_program(m["workload"]), SuiteCase(
            m["input"], m["opt"], m["threads"], rep=m["rep"])
    else:
        source, case = get_workload(m["workload"]), RunConfig(
            threads=m["threads"], mode=m["mode"], size=m["size"],
            pattern=m["pattern"], rep=m["rep"])
    assert f"{source.name}[{case.run_id()}]" == trace.name, trace.name
    return source, case


def _modes(workload) -> List[Any]:
    return sorted(workload.modes, key=lambda m: m.value)


def _registry_config(workload, mode, size, pattern="random"):
    from repro.workloads.base import RunConfig

    threads = 4 if workload.kind == "mt" else 1
    return RunConfig(threads=threads, mode=mode, size=size, pattern=pattern)


def pinned() -> Iterator[Tuple[str, Any, Any]]:
    """The pinned ``(label, generator, case)`` set: the four
    :func:`repro.telemetry.bench.drive_traces` and each suite program's
    :func:`repro.analysis.crosscheck.canonical_case`."""
    from repro.analysis.crosscheck import canonical_case
    from repro.suites import all_programs
    from repro.telemetry.bench import drive_traces

    for label, trace in drive_traces():
        yield (label, *_source(trace))
    for program in all_programs():
        case = canonical_case(program)
        yield f"{program.name}/{case.run_id()}", program, case


def traces() -> Iterator[Tuple[str, Any]]:
    """The pinned ``(label, ProgramTrace)`` set."""
    for label, source, case in pinned():
        yield label, source.trace(case)


def generators() -> Iterator[Tuple[str, Any, Any]]:
    """The generator layers' set: :func:`pinned`, every registry workload
    × mode at its first training size, :func:`built_workloads` × 3 modes."""
    from repro.workloads.registry import all_workloads

    yield from pinned()
    for w in all_workloads():
        for mode in _modes(w):
            cfg = _registry_config(w, mode, w.train_sizes[0])
            yield f"{w.name}/{cfg.run_id()}", w, cfg
    for w in built_workloads():
        for mode in _modes(w):
            cfg = _registry_config(w, mode, w.train_sizes[0])
            yield f"{w.name}/{cfg.run_id()}", w, cfg


def wide_generators() -> Iterator[Tuple[str, Any, Any]]:
    """Every generator a refactor of the trace code can reach.

    All 648 suite classification cases, every registry workload × mode ×
    training size (``count`` and ``pmatcompare`` also at 1 and 3 threads),
    the crosscheck :func:`~repro.analysis.crosscheck.default_grid`, and
    :func:`built_workloads` × 3 modes × 2 patterns.
    """
    from repro.analysis.crosscheck import default_grid
    from repro.suites import all_programs
    from repro.workloads.registry import all_workloads

    for program in all_programs():
        for case in program.cases():
            yield f"{program.name}/{case.run_id()}", program, case
    for w in all_workloads():
        threads = (1, 3, 4) if w.name in ("count", "pmatcompare") else (
            (4,) if w.kind == "mt" else (1,))
        for mode in _modes(w):
            for size in w.train_sizes:
                for t in threads:
                    cfg = _registry_config(w, mode, size).with_(threads=t)
                    yield f"{w.name}/{cfg.run_id()}", w, cfg
    for w, cfg in default_grid():
        yield f"grid/{w.name}/{cfg.run_id()}", w, cfg
    for w in built_workloads():
        for mode in _modes(w):
            for pattern in ("random", "stride4"):
                cfg = _registry_config(w, mode, w.train_sizes[0], pattern)
                yield f"{w.name}/{cfg.run_id()}", w, cfg


def generator_digests(items) -> Dict[str, str]:
    """``{"traces": sha256, "plans": sha256}`` over ``(label, gen, case)``."""
    th, ph = hashlib.sha256(), hashlib.sha256()
    for label, source, case in items:
        th.update(label.encode())
        for t in source.trace(case).threads:
            th.update(np.ascontiguousarray(t.addrs, dtype=np.int64).tobytes())
            th.update(np.ascontiguousarray(t.is_write, dtype=bool).tobytes())
            th.update(float(t.instr_per_access).hex().encode())
            th.update(str(int(t.extra_instructions)).encode())
        ph.update(label.encode())
        ph.update(json.dumps(canon(source.plan(case).to_dict()),
                             separators=(",", ":")).encode())
    return {"traces": th.hexdigest(), "plans": ph.hexdigest()}


def simulator_row(label: str, result) -> List[Any]:
    """One trace's entry in the ``simulator`` layer."""
    return [label, result.counts, result.cycles_per_core,
            result.instructions_per_core, result.seconds,
            result.hitm_samples]


def oracle_row(label: str, report) -> List[Any]:
    """One trace's entry in the ``oracle`` layer."""
    return [label, list(report.counts), report.per_line]


def outputs() -> Dict[str, List[Any]]:
    """Each layer's canonical outputs over :func:`traces`, in order."""
    from repro.baselines.shadow import ShadowMemoryDetector
    from repro.coherence.machine import SCALED_WESTMERE, MulticoreMachine
    from repro.core.detector import FalseSharingDetector
    from repro.core.lab import Lab
    from repro.pmu.events import TABLE2_EVENTS
    from repro.pmu.sampler import PMUSampler

    machine = MulticoreMachine(SCALED_WESTMERE)
    oracle = ShadowMemoryDetector()
    sampler = PMUSampler(seed=0)
    tree = FalseSharingDetector(Lab(disk_cache=None)).load(MODEL)
    out: Dict[str, List[Any]] = {"simulator": [], "oracle": [], "labels": []}
    for label, trace in traces():
        result = machine.run(trace)
        report = oracle.run(trace)
        out["simulator"].append(simulator_row(label, result))
        out["oracle"].append(oracle_row(label, report))
        vec = sampler.measure(result, TABLE2_EVENTS, run_id=label)
        out["labels"].append([label, tree.classify_vector(vec)])
    return out


def digests() -> Dict[str, str]:
    """``{layer: sha256}`` for every layer: generators, simulator, oracle,
    labels."""
    out = generator_digests(generators())
    out.update((layer, digest(items)) for layer, items in outputs().items())
    return out


def main(argv: Optional[List[str]] = None) -> int:
    from repro.versioning import SHADOW_VERSION, SIM_VERSION

    if "--wide" in (sys.argv[1:] if argv is None else argv):
        items = list(wide_generators())
        print(f"wide generator set: {len(items)} traces and plans")
        for layer, value in generator_digests(items).items():
            print(f"{layer:9s} {value}")
        return 0
    items = list(generators())
    print(f"SIM_VERSION={SIM_VERSION} SHADOW_VERSION={SHADOW_VERSION} "
          f"generators={len(items)}")
    for layer, value in generator_digests(items).items():
        print(f"{layer:9s} {value}")
    out = outputs()
    print(f"pinned traces={len(out['labels'])}")
    for layer, items in out.items():
        print(f"{layer:9s} {digest(items)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
