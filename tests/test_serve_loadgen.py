"""Tests for the deterministic load generator (repro.serve.loadgen)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.lab import Lab
from repro.core.training import FEATURES
from repro.errors import ServeError
from repro.ml.c45 import C45Classifier
from repro.ml.dataset import Dataset
from repro.results.schema import SERVE_SECTIONS, extract_metrics
from repro.serve.admission import AdmissionController
from repro.serve.client import ServeClient
from repro.serve.loadgen import (
    RUNGS,
    SHED_CEILING,
    bench_payload,
    generate_stream,
    measure_predict_batch,
    run_loadgen,
)
from repro.serve.router import RouterThread
from repro.serve.server import ServerThread
from repro.utils.stats import tally


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


def _router_pool(clf, n_workers=2, **router_kwargs):
    """A router fronting ``n_workers`` in-process servers: the fleet's
    router code without spawning worker processes."""
    workers = [ServerThread(clf) for _ in range(n_workers)]
    rt = RouterThread(**router_kwargs)
    host, port = rt.start()
    for i, thread in enumerate(workers):
        whost, wport = thread.start()
        rt.call(rt.router.add_worker, f"w{i}", whost, wport)
    return rt, workers, host, port


@pytest.fixture(scope="module")
def clf():
    rng = np.random.default_rng(2)
    Xt = rng.normal(size=(150, len(FEATURES)))
    y = ["bad-fs" if r[0] > 0 else "good" for r in Xt]
    return C45Classifier().fit(Dataset(Xt, y, [e.name for e in FEATURES]))


class TestRunLoadgen:
    def test_end_to_end_zero_shed(self, clf, stream):
        X, tags = stream
        with ServerThread(clf) as (host, port):
            result = run_loadgen(host, port, X, tags, window=8)
        assert result.vectors == result.requests == 24
        assert result.batch == 1 and result.connections == 1
        assert result.shed == 0 and result.errors == 0
        assert result.throughput_vps > 0
        assert sum(result.labels.values()) == result.completed == 24
        assert result.server["shed"] == 0

    @pytest.mark.parametrize("rung", RUNGS, ids=lambda r: r.name)
    def test_rung_accounting_ledger_and_labels(self, clf, stream, rung):
        """Every rung shape accounts for each vector exactly, agrees with
        the serving side's own ledger, and returns the labels a direct
        ``classify_batch`` gives for the same vectors."""
        X, tags = stream
        reps = 40  # 960 vectors across 5 distinct sources
        Xs = np.tile(X, (reps, 1))
        tags_s = tags * reps
        if rung.workers:
            rt, workers, host, port = _router_pool(clf, rung.workers)
            stoppers = [rt, *workers]
        else:
            thread = ServerThread(clf)
            host, port = thread.start()
            stoppers = [thread]
        try:
            result = run_loadgen(host, port, Xs, tags_s,
                                 connections=rung.connections,
                                 batch=rung.batch, window=rung.window)
        finally:
            for s in stoppers:
                s.stop()
        assert result.vectors == Xs.shape[0]
        assert result.completed + result.shed + result.errors == \
            result.vectors
        assert result.errors == 0 and result.shed == 0
        assert result.throughput_vps > 0
        assert result.requests == sum(
            -(-tags_s.count(t) // rung.batch) for t in set(tags_s))
        ledger = result.server
        if rung.workers:
            v = ledger["vectors"]
            assert v["received"] == result.vectors
            assert v["completed"] == result.completed
            assert v["shed"] == result.shed and v["inflight"] == 0
        else:
            assert ledger["classified"] == result.completed
            assert ledger["vectors_shed"] == result.shed
        with ServerThread(clf) as (dhost, dport):
            with ServeClient(dhost, dport) as direct:
                expected = direct.classify_batch(Xs, rid=1)
        assert result.labels == tally(expected)

    @pytest.mark.parametrize("reason,workers,admitted", [
        ("admission", 1, 5),     # a 5-vector bucket: answered `overloaded`
        ("unavailable", 0, 0),   # no shard to route to
    ])
    def test_router_sheds_count_as_shed_not_errors(self, clf, stream,
                                                   reason, workers,
                                                   admitted):
        """Line mode through a router that refuses vectors: every refused
        vector is shed, none is an error, and the router's ledger agrees."""
        X, tags = stream
        admission = (AdmissionController(rate=1e-9, burst=admitted)
                     if admitted else None)
        rt, pool, host, port = _router_pool(clf, workers,
                                            admission=admission)
        try:
            result = run_loadgen(host, port, X, tags, window=8)
        finally:
            rt.stop()
            for w in pool:
                w.stop()
        assert result.batch == 1
        assert result.completed == admitted
        assert result.shed == X.shape[0] - admitted
        assert result.errors == 0
        assert result.server["shed"][reason] == result.shed
        assert result.server["vectors"]["shed"] == result.shed

    def test_rejects_mismatched_tags(self):
        with pytest.raises(ServeError):
            run_loadgen("127.0.0.1", 1, np.zeros((4, 3)), ["a"])
        with pytest.raises(ServeError):
            run_loadgen("127.0.0.1", 1, np.zeros((1, 3)), ["a"], batch=0)

    def test_dead_server_is_an_error(self):
        with pytest.raises(ServeError):
            run_loadgen("127.0.0.1", 1, np.zeros((2, 3)), ["a", "b"])

    def test_payload_shape(self, clf, stream):
        import json
        import os

        X, tags = stream
        with ServerThread(clf) as (host, port):
            result = run_loadgen(host, port, X, tags, window=4)
        doc = bench_payload(
            {"server-line": {**result.to_dict(), "tier": "server",
                             "workers": 0}},
            predict_batch_vps=1e6, mode="smoke")
        assert doc["bench"] == "serve-throughput"
        assert doc["mode"] == "smoke"
        assert set(doc) == SERVE_SECTIONS
        assert doc["cpus"] == os.cpu_count()
        assert doc["affinity_cpus"] >= 1
        assert doc["predict_batch_vectors_per_s"] == 1_000_000
        rung = doc["rungs"]["server-line"]
        assert rung["vectors"] == 24 and rung["completed"] == 24
        json.dumps(doc)  # must be JSON-serializable as-is
        metrics = {m.name: m for m in extract_metrics("serve", doc)}
        assert metrics["server-line.throughput_vps"].value == \
            rung["throughput_vps"]
        assert metrics["server-line.shed"].bound == SHED_CEILING


class TestRunScaleLoadgen:
    """``run_loadgen`` against the router tier, off the ladder's shapes."""

    def test_scale_run_accounting_exact(self, clf, stream):
        X, tags = stream
        reps = 40  # 960 vectors across 5 distinct sources
        Xs = np.tile(X, (reps, 1))
        tags_s = tags * reps
        rt, workers, host, port = _router_pool(clf)
        try:
            # Three connections over five sources: an uneven deal.
            result = run_loadgen(host, port, Xs, tags_s,
                                 connections=3, batch=64)
            with ServeClient(host, port) as control:
                fleet = control.request({"op": "fleet"})["fleet"]
        finally:
            rt.stop()
            for w in workers:
                w.stop()
        assert result.vectors == Xs.shape[0]
        assert result.connections == 3
        assert result.completed + result.shed + result.errors == \
            result.vectors
        assert result.errors == 0 and result.shed == 0
        assert result.throughput_vps > 0
        assert sum(result.labels.values()) == result.completed
        # Router ledger agrees with the client-side tallies.
        v = result.server["vectors"]
        assert v["received"] == result.vectors
        assert v["completed"] == result.completed
        assert v["inflight"] == 0
        # Verdict aggregation saw every window of every source.
        assert fleet["windows"] == result.completed
        assert fleet["sources"] == len(set(tags))

    def test_scale_verdicts_match_single_server(self, clf, stream):
        """The batched multi-connection router path produces exactly the
        label multiset of the direct single-server path."""
        X, tags = stream
        rt, workers, host, port = _router_pool(clf)
        try:
            result = run_loadgen(host, port, X, tags,
                                 connections=2, batch=8)
        finally:
            rt.stop()
            for w in workers:
                w.stop()
        with ServerThread(clf) as (dhost, dport):
            with ServeClient(dhost, dport) as direct:
                expected = direct.classify_batch(X, rid=1)
        assert result.labels == tally(expected)

    def test_payload_scale_section_provenance(self, clf, stream):
        """A router-tier rung lands in the payload with its topology and
        the host it ran on; no cross-rung ratio is written."""
        import json
        import os

        X, tags = stream
        rt, workers, host, port = _router_pool(clf)
        try:
            result = run_loadgen(host, port, X, tags,
                                 connections=2, batch=8)
        finally:
            rt.stop()
            for w in workers:
                w.stop()
        doc = bench_payload(
            {"fleet-batch": {**result.to_dict(), "tier": "fleet",
                             "workers": len(workers)}},
            predict_batch_vps=1e6, mode="smoke")
        assert doc["cpus"] == os.cpu_count()
        assert doc["affinity_cpus"] >= 1
        rung = doc["rungs"]["fleet-batch"]
        assert rung["workers"] == 2
        assert rung["server"]["vectors"]["received"] == X.shape[0]
        json.dumps(doc)  # must be JSON-serializable as-is
        metrics = {m.name: m for m in extract_metrics("serve", doc)}
        assert metrics["fleet-batch.shed"].bound == SHED_CEILING == 0
        assert metrics["fleet-batch.workers"].value == 2.0
        assert metrics["host.cpus"].value == float(os.cpu_count())
        assert not any("speedup" in name for name in metrics)


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


