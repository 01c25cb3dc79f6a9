"""Pinned output digests: the simulator, the oracle and the tree, hashed.

A fixed set of traces — the four :func:`repro.telemetry.bench.drive_traces`
and each suite program's :func:`repro.analysis.crosscheck.canonical_case`
— runs through the simulator, the shadow-memory oracle and the committed
tree (``models/detector.json``).  Each layer's outputs are serialized
canonically (sorted keys, floats as ``float.hex``) and hashed with SHA-256,
so a change that alters any simulated count, oracle attribution or label
changes a digest, whichever code path computed it.

``tests/test_output_digests.py`` compares the digests with a table keyed by
``(SIM_VERSION, SHADOW_VERSION)``: a change to the results needs a version
bump (which also retires the disk caches) and a new table row.

Print the current digests with::

    PYTHONPATH=src python -m tests.digests
"""

from __future__ import annotations

import hashlib
import json
import numbers
from pathlib import Path
from typing import Any, Dict, Iterator, List, Tuple

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


def traces() -> Iterator[Tuple[str, Any]]:
    """The pinned ``(label, ProgramTrace)`` set."""
    from repro.analysis.crosscheck import canonical_case
    from repro.suites import all_programs
    from repro.telemetry.bench import drive_traces

    yield from drive_traces()
    for program in all_programs():
        case = canonical_case(program)
        yield f"{program.name}/{case.run_id()}", program.trace(case)


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
        out["simulator"].append([
            label, result.counts, result.cycles_per_core,
            result.instructions_per_core, result.seconds,
            result.hitm_samples])
        out["oracle"].append([label, list(report.counts), report.per_line])
        vec = sampler.measure(result, TABLE2_EVENTS, run_id=label)
        out["labels"].append([label, tree.classify_vector(vec)])
    return out


def digests() -> Dict[str, str]:
    """``{layer: sha256}`` for the simulator, the oracle and the labels."""
    return {layer: digest(items) for layer, items in outputs().items()}


def main() -> int:
    from repro.versioning import SHADOW_VERSION, SIM_VERSION

    out = outputs()
    print(f"SIM_VERSION={SIM_VERSION} SHADOW_VERSION={SHADOW_VERSION} "
          f"traces={len(out['labels'])}")
    for layer, items in out.items():
        print(f"{layer:9s} {digest(items)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
