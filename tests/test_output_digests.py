"""The generators', simulator's, oracle's and tree's outputs match pinned digests.

A new row belongs here only together with a ``SIM_VERSION`` or
``SHADOW_VERSION`` bump (:mod:`repro.versioning`): results that change
under unchanged versions would be read back from stale disk caches.  That
holds for the ``traces`` and ``plans`` layers too: the simulation and
oracle caches key on ``(workload, case)``, not on the trace bytes, so a
generator change that alters a trace would silently keep serving the old
trace's counts until ``SIM_VERSION`` is bumped.  See :mod:`tests.digests`
for the recipe; ``PYTHONPATH=src python -m tests.digests`` prints the
current digests.
"""

import math

from repro.core.lab import Lab
from repro.experiments.context import PipelineContext
from repro.parallel import ExecutionEngine
from repro.trace.store import STORED, save_program
from repro.versioning import SHADOW_VERSION, SIM_VERSION

from tests.digests import (canon, digest, digests, oracle_row,
                           simulator_row, traces)

#: ``(SIM_VERSION, SHADOW_VERSION) -> {layer: sha256}``.
PINNED = {
    ("v9", "s2"): {
        "traces":
            "b1b4386a02c095509bdd447fb7c9bc0acda538b66a1b8cd549d26442d9dcd11a",
        "plans":
            "b54e7c9d36639c7b1d197c2ba53777bff35935de57b8788439003b9c4f160bc4",
        "simulator":
            "2946d7c169403a17d113309465943bbb3c3a020b2aaf8887bd53eabdfa5b0d7c",
        "oracle":
            "bc3a76742e06f2d5a3e08863f85f19e9b47adfbe5a76e1109ed3552a2334d722",
        "labels":
            "81a03146017ed1c445131e680a87d43e0ba19b62652f99540c45e5828166a2be",
    },
}


def test_outputs_match_the_pinned_digests():
    versions = (SIM_VERSION, SHADOW_VERSION)
    assert versions in PINNED, (
        f"no pinned digests for {versions}: add the row printed by "
        "`python -m tests.digests`")
    assert digests() == PINNED[versions]


def test_stored_pinned_traces_match_the_pinned_digests(tmp_path):
    # The pinned traces saved as program stores, simulated and shadowed in
    # one visit per case by the stored target's case tasks at two jobs.
    labels, pairs = [], []
    for i, (label, trace) in enumerate(traces()):
        path = tmp_path / f"{i}.rtrc"
        save_program(trace, path)
        labels.append(label)
        pairs.append((STORED, STORED.case(path)))
    lab = Lab(disk_cache=None)
    ctx = PipelineContext(lab=lab, engine=ExecutionEngine(jobs=2))
    tasks = ctx.engine.prefetch(lab, pairs, shadowed=pairs,
                                shadow_cache=ctx.shadow_cache,
                                oracle=ctx.shadow)
    # One case task per distinct trace (byte-identical stores share one),
    # which installed both halves: the reads below are cache hits.
    assert tasks == len({case.digest for _, case in pairs})
    assert len(lab.sim_cache) == len(ctx.shadow_cache) == tasks
    pinned = PINNED[(SIM_VERSION, SHADOW_VERSION)]
    assert digest([simulator_row(label, lab.simulate(*pair))
                   for label, pair in zip(labels, pairs)]
                  ) == pinned["simulator"]
    assert digest([oracle_row(label, report) for label, report in
                   zip(labels, ctx.shadow_reports(pairs))]
                  ) == pinned["oracle"]


def test_canonical_form_is_exact_and_order_free():
    assert canon({2: (1, 0), 1: [0.1]}) == canon({1: [0.1], 2: (1, 0)})
    assert canon(0.1) == (0.1).hex() != canon(math.nextafter(0.1, 1.0))
    assert digest([{"a": 1}]) != digest([{"a": 1.0}])
