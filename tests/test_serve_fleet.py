"""Fleet supervision: spawn, hot restart, watchdog, end-to-end identity.

These tests boot real worker *processes* (multiprocessing spawn), so the
pool is kept small and module-scoped.
"""

from __future__ import annotations

import multiprocessing
import time

import numpy as np
import pytest

from repro.core.training import FEATURES
from repro.errors import ServeError
from repro.ml.c45 import C45Classifier
from repro.ml.dataset import Dataset
from repro.ml.persistence import classifier_to_dict
from repro.serve.client import ServeClient
from repro.serve.fleet import FleetThread, load_model_doc
from repro.serve.server import ServerThread

N_FEATURES = len(FEATURES)


def _make_clf():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(200, N_FEATURES))
    y = ["bad-fs" if r[0] > 0 else "good" for r in X]
    return C45Classifier().fit(Dataset(X, y, [e.name for e in FEATURES]))


@pytest.fixture(scope="module")
def clf():
    return _make_clf()


@pytest.fixture(scope="module")
def model_doc(clf):
    return classifier_to_dict(clf)


@pytest.fixture(scope="module")
def fleet(model_doc):
    thread = FleetThread(model_doc, workers=2)
    try:
        host, port = thread.start()
        yield thread, host, port
    finally:
        thread.stop()


def test_load_model_doc_accepts_clf_dict_and_path(clf, model_doc, tmp_path):
    import json

    assert load_model_doc(model_doc) is model_doc
    assert load_model_doc(clf)["tree"] == model_doc["tree"]
    path = tmp_path / "m.json"
    path.write_text(json.dumps(model_doc))
    assert load_model_doc(path)["tree"] == model_doc["tree"]
    with pytest.raises(ServeError):
        load_model_doc(tmp_path / "missing.json")
    with pytest.raises(ServeError):
        load_model_doc(42)


def test_fleet_serves_and_reports_topology(fleet):
    thread, host, port = fleet
    rng = np.random.default_rng(1)
    with ServeClient(host, port) as client:
        labels = client.classify_batch(rng.normal(size=(16, N_FEATURES)),
                                       rid=1, source="boot-check")
        assert len(labels) == 16
        router_stats = client.stats()
    stats = thread.stats()
    assert stats["supervisor"]["alive"] == 2
    assert sorted(router_stats["workers"]) == ["w0", "w1"]
    assert all(w["up"] for w in router_stats["workers"].values())


def test_fleet_bit_identical_to_direct_server(clf, fleet):
    _, host, port = fleet
    rng = np.random.default_rng(2)
    X = rng.normal(size=(128, N_FEATURES))
    with ServeClient(host, port) as client:
        via_fleet = client.classify_batch(X, rid=1, source="identity")
    with ServerThread(clf) as (dhost, dport):
        with ServeClient(dhost, dport) as direct:
            expected = direct.classify_batch(X, rid=1)
    assert via_fleet == expected


def test_hot_restart_preserves_other_shards(clf, fleet):
    """Restarting one worker sheds only its own in-flight work; the other
    shard's stream continues uninterrupted and verdicts stay identical."""
    thread, host, port = fleet
    router = thread.fleet.router
    rng = np.random.default_rng(3)
    X = rng.normal(size=(64, N_FEATURES))
    src_w0 = next(f"a-{i}" for i in range(64)
                  if router.ring.assign(f"a-{i}") == "w0")
    src_w1 = next(f"b-{i}" for i in range(64)
                  if router.ring.assign(f"b-{i}") == "w1")

    with ServerThread(clf) as (dhost, dport):
        with ServeClient(dhost, dport) as direct:
            expected = direct.classify_batch(X, rid=0)

    with ServeClient(host, port, timeout=60.0) as client:
        assert client.classify_batch(X, rid=1, source=src_w0) == expected
        thread.restart_worker("w0")
        # The untouched shard answers throughout; the restarted shard
        # resumes with bit-identical verdicts on the same vectors.
        assert client.classify_batch(X, rid=2, source=src_w1) == expected
        assert client.classify_batch(X, rid=3, source=src_w0) == expected
        stats = client.stats()
    assert stats["workers"]["w0"]["restarts"] >= 1
    assert router.ring.assign(src_w0) == "w0"
    v = stats["vectors"]
    assert v["received"] == (v["completed"] + v["shed"] + v["errors"]
                             + v["inflight"])


def test_watchdog_respawns_crashed_worker(fleet):
    thread, host, port = fleet
    sup = thread.fleet.supervisor
    victim = sup._workers["w1"]
    victim.process.terminate()
    victim.process.join(timeout=10.0)
    deadline = time.monotonic() + 60.0
    while time.monotonic() < deadline:
        # The worker is briefly absent from the pool mid-respawn.
        fresh = sup._workers.get("w1")
        if fresh is not None and fresh.alive() and not sup.dead_workers():
            link = thread.fleet.router._links.get("w1")
            if link is not None and link.up:
                break
        time.sleep(0.1)
    else:
        pytest.fail("watchdog did not respawn the crashed worker")
    rng = np.random.default_rng(4)
    src_w1 = next(f"c-{i}" for i in range(64)
                  if thread.fleet.router.ring.assign(f"c-{i}") == "w1")
    with ServeClient(host, port, timeout=60.0, retries=3) as client:
        labels = client.classify_batch(rng.normal(size=(8, N_FEATURES)),
                                       rid=1, source=src_w1)
    assert len(labels) == 8
    assert sup.restarts >= 1


def test_fleet_stop_reaps_workers(model_doc):
    """stop() leaves no worker process behind, the watchdog's respawns
    included."""
    thread = FleetThread(model_doc, workers=2, watchdog_interval_s=0.1)
    thread.start()
    sup = thread.fleet.supervisor
    try:
        spawned = [w.process for w in sup._workers.values()]
        victim = sup._workers["w0"].process
        victim.terminate()
        victim.join(timeout=10.0)
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            fresh = sup._workers.get("w0")
            if fresh is not None and fresh.process is not victim \
                    and fresh.alive():
                break
            time.sleep(0.05)
        else:
            pytest.fail("watchdog did not respawn the killed worker")
        spawned.append(fresh.process)
    finally:
        thread.stop()
    assert not any(p.is_alive() for p in spawned)
    children = {p.pid for p in multiprocessing.active_children()}
    assert children.isdisjoint(p.pid for p in spawned)


def test_fleet_rejects_bad_worker_count(model_doc):
    with pytest.raises(ServeError):
        FleetThread(model_doc, workers=0)
