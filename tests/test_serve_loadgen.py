"""Tests for the deterministic load generator (repro.serve.loadgen)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.lab import Lab
from repro.core.training import FEATURES
from repro.ml.c45 import C45Classifier
from repro.ml.dataset import Dataset
from repro.serve.loadgen import (
    LoadGenResult,
    bench_payload,
    generate_stream,
    measure_predict_batch,
    run_loadgen,
)
from repro.serve.server import ServerThread


@pytest.fixture(scope="module")
def stream():
    """A small deterministic request stream (shared: simulation is the
    expensive part)."""
    lab = Lab(disk_cache=None)
    return generate_stream(24, seed=0, lab=lab, distinct=12)


class TestGenerateStream:
    def test_shape_and_tags(self, stream):
        X, tags = stream
        assert X.shape == (24, len(FEATURES))
        assert len(tags) == 24
        assert {"good", "bad-fs", "bad-ma", "suite"} <= {
            t.split(":")[0] for t in tags
        }
        assert np.isfinite(X).all()

    def test_deterministic(self):
        lab_a = Lab(disk_cache=None)
        lab_b = Lab(disk_cache=None)
        Xa, ta = generate_stream(10, seed=0, lab=lab_a, distinct=6)
        Xb, tb = generate_stream(10, seed=0, lab=lab_b, distinct=6)
        assert np.array_equal(Xa, Xb)
        assert ta == tb

    def test_distinct_vectors_then_tiled(self, stream):
        X, _ = stream
        # 12 distinct measurement draws tiled to 24 rows.
        assert np.array_equal(X[:12], X[12:24])
        assert not np.array_equal(X[0], X[6])  # different noise draws

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            generate_stream(0)


class TestRunLoadgen:
    def test_end_to_end_zero_shed(self, stream):
        X, _ = stream
        rng = np.random.default_rng(2)
        Xt = rng.normal(size=(150, len(FEATURES)))
        y = ["bad-fs" if r[0] > 0 else "good" for r in Xt]
        clf = C45Classifier().fit(
            Dataset(Xt, y, [e.name for e in FEATURES])
        )
        thread = ServerThread(clf, port=0)
        host, port = thread.start()
        try:
            result = run_loadgen(host, port, X, window=8)
        finally:
            thread.stop()
        assert isinstance(result, LoadGenResult)
        assert result.requests == 24
        assert result.shed == 0 and result.errors == 0
        assert result.throughput_rps > 0
        assert sum(result.labels.values()) == 24
        assert result.server["shed"] == 0

    def test_payload_shape(self, stream):
        result = LoadGenResult(
            requests=10, window=4, seconds=0.5, throughput_rps=20.0,
            latency_ms={"p50": 1.0, "p95": 2.0, "p99": 3.0,
                        "mean": 1.2, "max": 3.5},
            shed=0, errors=0, labels={"good": 10},
            server={"batches": 3, "max_batch_seen": 4, "shed": 0,
                    "config": {}},
        )
        doc = bench_payload(result, predict_batch_vps=1e6, mode="smoke")
        assert doc["bench"] == "serve-throughput"
        assert doc["mode"] == "smoke"
        assert doc["loadgen"]["requests"] == 10
        assert doc["loadgen"]["latency_ms"]["p99"] == 3.0
        assert doc["predict_batch_vectors_per_s"] == 1_000_000
        import json

        json.dumps(doc)  # must be JSON-serializable as-is


class TestMeasurePredictBatch:
    def test_positive_rate(self, stream):
        X, _ = stream
        root = C45Classifier()
        rng = np.random.default_rng(3)
        Xt = rng.normal(size=(60, len(FEATURES)))
        y = ["a" if r[1] > 0 else "b" for r in Xt]
        root.fit(Dataset(Xt, y, [e.name for e in FEATURES]))
        from repro.serve.inference import as_compiled

        vps = measure_predict_batch(as_compiled(root), X, repeats=2)
        assert vps > 0


def _router_pool(clf, n_workers=2):
    from repro.serve.router import RouterThread

    workers = [ServerThread(clf) for _ in range(n_workers)]
    rt = RouterThread()
    host, port = rt.start()
    for i, thread in enumerate(workers):
        whost, wport = thread.start()
        rt.call(rt.router.add_worker, f"w{i}", whost, wport)
    return rt, workers, host, port


class TestRunScaleLoadgen:
    @pytest.fixture(scope="class")
    def clf(self):
        rng = np.random.default_rng(2)
        Xt = rng.normal(size=(150, len(FEATURES)))
        y = ["bad-fs" if r[0] > 0 else "good" for r in Xt]
        return C45Classifier().fit(Dataset(Xt, y, [e.name for e in FEATURES]))

    def test_scale_run_accounting_exact(self, clf, stream):
        from repro.serve.loadgen import ScaleResult, run_scale_loadgen

        X, tags = stream
        reps = 40  # 960 vectors across 5 distinct sources
        Xs = np.tile(X, (reps, 1))
        tags_s = tags * reps
        rt, workers, host, port = _router_pool(clf)
        try:
            result = run_scale_loadgen(host, port, Xs, tags_s,
                                       connections=3, batch=64)
        finally:
            rt.stop()
            for w in workers:
                w.stop()
        assert isinstance(result, ScaleResult)
        assert result.vectors == Xs.shape[0]
        assert result.completed + result.shed + result.errors == \
            result.vectors
        assert result.errors == 0 and result.shed == 0
        assert result.throughput_vps > 0
        assert sum(result.labels.values()) == result.completed
        # Router ledger agrees with the client-side tallies.
        v = result.router["vectors"]
        assert v["received"] == result.vectors
        assert v["completed"] == result.completed
        assert v["inflight"] == 0
        # Verdict aggregation saw every window of every source.
        assert result.fleet["windows"] == result.completed
        assert result.fleet["sources"] == len(set(tags))

    def test_scale_verdicts_match_single_server(self, clf, stream):
        """The batched multi-connection router path produces exactly the
        label multiset of the direct single-server path."""
        from repro.serve.client import ServeClient
        from repro.serve.loadgen import run_scale_loadgen

        X, tags = stream
        rt, workers, host, port = _router_pool(clf)
        try:
            result = run_scale_loadgen(host, port, X, tags,
                                       connections=2, batch=8)
        finally:
            rt.stop()
            for w in workers:
                w.stop()
        with ServerThread(clf) as (dhost, dport):
            with ServeClient(dhost, dport) as direct:
                expected = direct.classify_batch(X, rid=1)
        from repro.utils.stats import tally

        assert result.labels == tally(expected)

    def test_payload_scale_section_provenance(self, clf, stream):
        import os

        from repro.serve.loadgen import run_scale_loadgen

        X, tags = stream
        rt, workers, host, port = _router_pool(clf)
        try:
            scale = run_scale_loadgen(host, port, X, tags,
                                      connections=2, batch=8)
        finally:
            rt.stop()
            for w in workers:
                w.stop()
        single = LoadGenResult(
            requests=10, window=4, seconds=0.5, throughput_rps=20.0,
            latency_ms={"p50": 1.0, "p95": 2.0, "p99": 3.0,
                        "mean": 1.2, "max": 3.5},
            shed=0, errors=0, labels={"good": 10}, server={},
        )
        doc = bench_payload(single, predict_batch_vps=1e6, mode="smoke",
                            scale=scale)
        assert doc["cpus"] == os.cpu_count()
        assert doc["affinity_cpus"] >= 1
        section = doc["scale"]
        assert section["workers"] == 2
        assert section["router_config"]["max_worker_inflight"] > 0
        assert section["shed_ceiling"] == 0
        assert section["speedup_vs_single"] == pytest.approx(
            scale.throughput_vps / 20.0, rel=0.01
        )
        import json

        json.dumps(doc)  # must be JSON-serializable as-is

    def test_rejects_mismatched_tags(self, clf):
        from repro.serve.loadgen import run_scale_loadgen

        with pytest.raises(Exception):
            run_scale_loadgen("127.0.0.1", 1, np.zeros((4, 3)), ["a"])
