"""``repro.results``: store schema, ingest, dedup and corruption."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.errors import ResultsError
from repro.results.schema import (
    STORE_SCHEMA,
    classify_payload,
    extract_metrics,
    payload_digest,
)
from repro.results.store import EXPORT_FORMAT, ResultsStore
from repro.serve.loadgen import SHED_CEILING

REPO = Path(__file__).parent.parent


def bench_payload(fast=1_000_000, speedup=2.0, floor=None):
    row = {"accesses": 1000, "fast_accesses_per_s": fast, "speedup": speedup}
    if floor is not None:
        row["speedup_floor"] = floor
    return {
        "bench": "simulator-throughput",
        "drive": {"psums/bad-fs/t4": row},
        "e2e": {},
    }


def serve_payload(vps=37_000.0, shed=0):
    """A ``repro-serve bench`` document: a line rung and a fleet rung."""
    def rung(rate, workers, batch, window):
        return {
            "vectors": 1000, "connections": 4 if workers else 1,
            "batch": batch, "window": window,
            "throughput_vps": rate,
            "latency_ms": {"p50": 20.0, "p95": 30.0, "p99": 34.0},
            "completed": 1000 - shed, "shed": shed, "errors": 0,
            "tier": "fleet" if workers else "server", "workers": workers,
        }

    return {
        "bench": "serve-throughput",
        "mode": "smoke",
        "cpus": 4,
        "affinity_cpus": 4,
        "predict_batch_vectors_per_s": 16_000_000,
        "rungs": {
            "server-line": rung(vps, 0, 1, 512),
            "fleet-batch": rung(4 * vps, 2, 256, 8),
        },
    }


# ------------------------------------------------------------- schema


def test_classify_every_committed_artifact_kind():
    sim = json.loads((REPO / "BENCH_simulator.json").read_text())
    srv = json.loads((REPO / "BENCH_serve.json").read_text())
    assert classify_payload(sim) == "bench"
    assert classify_payload(srv) == "serve"
    assert classify_payload({"schema": "repro-manifest/1",
                             "counters": {"x": 1}}) == "manifest"
    assert classify_payload({"report": "crosscheck",
                             "pairwise_fs_agreement": {}}) == "crosscheck"
    assert classify_payload({"report": "predict-validation"}) == "validate"
    assert classify_payload({"pairwise_fs_agreement": {"a-b": 1.0},
                             "disagreements": []}) == "crosscheck"
    assert classify_payload({"line_precision": 0.9}) == "validate"


def test_classify_rejects_unknown_payloads():
    with pytest.raises(ResultsError):
        classify_payload({"totally": "unrelated"})
    with pytest.raises(ResultsError):
        classify_payload([1, 2, 3])
    with pytest.raises(ResultsError):
        classify_payload({})


def test_extract_bench_metrics_carry_floors():
    metrics = {m.name: m for m in
               extract_metrics("bench", bench_payload(floor=1.3))}
    assert metrics["drive.psums/bad-fs/t4.speedup"].bound == 1.3
    assert metrics["drive.psums/bad-fs/t4.fast_accesses_per_s"].direction \
        == "higher"


def test_extract_committed_bench_metrics_are_drive_oracle_and_e2e():
    sim = json.loads((REPO / "BENCH_simulator.json").read_text())
    metrics = {m.name: m for m in extract_metrics("bench", sim)}
    assert {name.split(".")[0] for name in metrics} == {"drive", "oracle",
                                                        "e2e"}
    for section in ("drive", "oracle"):
        for label, row in sim[section].items():
            speedup = metrics[f"{section}.{label}.speedup"]
            assert speedup.bound == row["speedup_floor"]
            rate = metrics[f"{section}.{label}.fast_accesses_per_s"]
            assert rate.bound is None


def test_extract_serve_metrics_shed_has_zero_ceiling():
    metrics = {m.name: m for m in
               extract_metrics("serve", serve_payload())}
    assert metrics["server-line.shed"].direction == "lower"
    assert metrics["server-line.shed"].bound == 0.0
    assert metrics["server-line.latency_ms.p99"].direction == "lower"


def test_classify_serve_scale_payload():
    # The standalone fleet-scale kind is retired: a bare `scale` document
    # is no longer recognized, with or without a foreign bench tag.
    scale = {"throughput_vps": 150_000.0, "shed": 0}
    with pytest.raises(ResultsError):
        classify_payload({"scale": scale})
    with pytest.raises(ResultsError):
        classify_payload({"bench": "fleet-scale", "scale": scale})


def test_extract_scale_metrics_carry_shed_ceiling():
    # The router-tier (scale) rung is gated like every other rung.
    metrics = {m.name: m for m in extract_metrics("serve", serve_payload())}
    assert metrics["fleet-batch.throughput_vps"].direction == "higher"
    assert metrics["fleet-batch.shed"].bound == 0.0
    assert metrics["fleet-batch.errors"].bound == 0.0
    assert metrics["server-line.errors"].bound == 0.0
    assert metrics["fleet-batch.latency_ms.p99"].direction == "lower"
    # Host/topology provenance is trended (info) for cross-host sanity.
    assert metrics["fleet-batch.workers"].direction == "info"
    assert metrics["fleet-batch.batch"].value == 256.0
    assert metrics["host.cpus"].direction == "info"
    assert not any("speedup" in name for name in metrics)


def test_extract_scale_shed_ceiling_defaults_to_zero():
    # A rung cannot declare its own, looser ceiling: the bound is the
    # bench's SHED_CEILING whatever the payload says.
    doc = serve_payload()
    doc["rungs"]["fleet-batch"]["shed_ceiling"] = 100
    metrics = {m.name: m for m in extract_metrics("serve", doc)}
    assert SHED_CEILING == 0
    assert metrics["fleet-batch.shed"].bound == 0.0
    assert metrics["server-line.shed"].bound == 0.0


def test_extract_serve_with_embedded_scale_section():
    # The scale numbers are no separate section: the fleet rung sits in
    # the same serve document as the line rung, with one host record.
    metrics = {m.name: m for m in extract_metrics("serve", serve_payload())}
    assert "server-line.throughput_vps" in metrics
    assert "fleet-batch.throughput_vps" in metrics
    assert metrics["host.cpus"].value == 4.0


@pytest.mark.parametrize("breakage", [
    "old-loadgen-shape", "no-rungs", "empty-rungs", "rungs-not-object",
    "rung-not-object", "rung-without-throughput", "unknown-section",
])
def test_extract_serve_refuses_malformed_payload(breakage):
    doc = serve_payload()
    if breakage == "old-loadgen-shape":
        del doc["rungs"]
        doc["loadgen"] = {"throughput_rps": 23_000.0, "shed": 0}
    elif breakage == "no-rungs":
        del doc["rungs"]
    elif breakage == "empty-rungs":
        doc["rungs"] = {}
    elif breakage == "rungs-not-object":
        doc["rungs"] = [doc["rungs"]["server-line"]]
    elif breakage == "rung-not-object":
        doc["rungs"]["server-line"] = 37_000.0
    elif breakage == "rung-without-throughput":
        doc["rungs"]["fleet-batch"]["throughput_vps"] = "fast"
    elif breakage == "unknown-section":
        doc["speedup"] = 4.68
    assert classify_payload(doc) == "serve"
    with pytest.raises(ResultsError):
        extract_metrics("serve", doc)


def test_store_ingests_serve_rungs(tmp_path):
    with ResultsStore(tmp_path / "h.db") as store:
        outcome = store.ingest(serve_payload(), source="serve.json")
        assert outcome.kind == "serve"
        assert store.series("fleet-batch.throughput_vps",
                            kind="serve") == [148_000.0]
        with pytest.raises(ResultsError):
            store.ingest({"bench": "serve-throughput",
                          "loadgen": {"throughput_rps": 1.0}})
        assert len(store.runs()) == 1  # nothing half-ingested


def test_store_ingests_validation_disagreements_as_info(tmp_path):
    # Each sweep's verdict disagreements are trended, never gated: the
    # suite sweep of predict-validation has one known disagreement.
    def sweep(disagreements):
        return {"line_precision": 0.79, "line_recall": 1.0,
                "verdict_agreement": 1.0, "disagreements": disagreements}

    doc = {"report": "predict-validation", "registry": sweep([]),
           "suite": sweep(["histogram[10MB-O0-t6]"])}
    with ResultsStore(tmp_path / "r.db") as store:
        outcome = store.ingest(doc, source="validate.json")
        metrics = {m.name: m for m in store.metrics_for(outcome.run_id)}
    assert outcome.kind == "validate"
    for name, n in (("registry.disagreements", 0.0),
                    ("suite.disagreements", 1.0)):
        assert metrics[name].value == n
        assert metrics[name].direction == "info"
        assert metrics[name].bound is None


def test_extract_refuses_empty_payload():
    with pytest.raises(ResultsError):
        extract_metrics("bench", {"bench": "simulator-throughput",
                                  "drive": {}})
    with pytest.raises(ResultsError):
        extract_metrics("nonsense", {})


def test_digest_is_formatting_invariant():
    a = {"bench": "simulator-throughput", "drive": {"x": {"speedup": 1.0}}}
    b = json.loads(json.dumps(a, indent=4, sort_keys=True))
    assert payload_digest(a) == payload_digest(b)
    assert payload_digest(a) != payload_digest(bench_payload())


# -------------------------------------------------------------- store


def test_store_roundtrip_and_dedup(tmp_path):
    with ResultsStore(tmp_path / "h.db") as store:
        one = store.ingest(bench_payload(), source="a.json")
        again = store.ingest(bench_payload(), source="b.json")
        other = store.ingest(bench_payload(fast=2_000_000))
        assert one.fresh and not again.fresh and other.fresh
        assert again.run_id == one.run_id
        runs = store.runs()
        assert [r.run_id for r in runs] == [one.run_id, other.run_id]
        assert runs[0].kind == "bench" and runs[0].source == "a.json"
        assert store.payload(one.run_id)["bench"] == "simulator-throughput"
        assert store.series("drive.psums/bad-fs/t4.fast_accesses_per_s") \
            == [1_000_000.0, 2_000_000.0]


def test_store_persists_across_reopen(tmp_path):
    path = tmp_path / "h.db"
    with ResultsStore(path) as store:
        store.ingest(bench_payload())
    with ResultsStore(path) as store:
        assert len(store.runs()) == 1
        assert store.kinds() == ["bench"]


def test_store_mixed_kinds_are_separated(tmp_path):
    with ResultsStore(tmp_path / "h.db") as store:
        store.ingest(bench_payload())
        store.ingest(serve_payload())
        assert store.kinds() == ["bench", "serve"]
        assert len(store.runs(kind="serve")) == 1
        assert store.latest_run("serve").kind == "serve"
        assert store.latest_run("manifest") is None


def test_store_manifest_ingest_uses_payload_provenance(tmp_path):
    doc = {"schema": "repro-manifest/1", "created_unix": 1_700_000_000.0,
           "git": {"sha": "cafebabe" * 5, "dirty": False},
           "counters": {"sim.accesses": 123.0}}
    with ResultsStore(tmp_path / "h.db") as store:
        outcome = store.ingest(doc)
        run = store.runs()[0]
        assert outcome.kind == "manifest"
        assert run.created_unix == 1_700_000_000.0
        assert run.git_sha.startswith("cafebabe")
        # Manifest metrics are informational: trended, never gated.
        assert all(m.direction == "info"
                   for m in store.metrics_for(run.run_id))


def test_store_max_bound_never_weakens(tmp_path):
    with ResultsStore(tmp_path / "h.db") as store:
        store.ingest(bench_payload(floor=1.3))
        # A later payload that drops its floor must not relax the gate.
        store.ingest(bench_payload(fast=999_999, floor=None))
        assert store.max_bound("drive.psums/bad-fs/t4.speedup",
                               "higher") == 1.3
        # ...and a stricter floor wins over a looser one.
        store.ingest(bench_payload(fast=999_998, floor=1.5))
        assert store.max_bound("drive.psums/bad-fs/t4.speedup",
                               "higher") == 1.5


def test_corrupt_store_raises_results_error(tmp_path):
    path = tmp_path / "corrupt.db"
    path.write_bytes(b"this is not a sqlite database, not even close\x00\x01")
    with pytest.raises(ResultsError):
        ResultsStore(path)


def test_foreign_sqlite_database_raises_results_error(tmp_path):
    import sqlite3

    path = tmp_path / "foreign.db"
    db = sqlite3.connect(str(path))
    db.execute("CREATE TABLE meta (key TEXT PRIMARY KEY, value TEXT)")
    db.execute("INSERT INTO meta VALUES ('schema', 'someone-elses/9')")
    db.commit()
    db.close()
    with pytest.raises(ResultsError) as err:
        ResultsStore(path)
    assert STORE_SCHEMA in str(err.value)


def test_store_refuses_unrecognized_payload(tmp_path):
    with ResultsStore(tmp_path / "h.db") as store:
        with pytest.raises(ResultsError):
            store.ingest({"mystery": True})
        assert store.runs() == []  # nothing half-ingested


def test_export_columnar_roundtrip(tmp_path):
    with ResultsStore(tmp_path / "h.db") as store:
        store.ingest(bench_payload())
        store.ingest(serve_payload())
        out = store.export_columnar(tmp_path / "export.json")
    doc = json.loads(out.read_text())
    assert doc["format"] == EXPORT_FORMAT
    assert doc["runs"]["kind"] == ["bench", "serve"]
    cols = doc["metrics"]
    n = len(cols["name"])
    # Column-major: every column has one entry per metric row.
    assert n > 0
    assert all(len(cols[c]) == n
               for c in ("run_id", "value", "unit", "direction", "bound"))
    assert "server-line.throughput_vps" in cols["name"]
