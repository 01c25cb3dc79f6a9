"""Router tier: hash stability, raw-byte forwarding, shed accounting.

Workers here are in-process :class:`ServerThread` instances — the router
does not care that they share our interpreter; process supervision is
covered by ``test_serve_fleet.py``.
"""

from __future__ import annotations

import json
import socket

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.training import FEATURES
from repro.errors import ServeError
from repro.ml.c45 import C45Classifier
from repro.ml.dataset import Dataset
from repro.serve.admission import AdmissionController
from repro.serve.client import ServeClient
from repro.serve.router import HashRing, RouterThread
from repro.serve.server import ServerThread
from tests.test_serve_server import MALFORMED

N_FEATURES = len(FEATURES)


def _make_clf():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(200, N_FEATURES))
    y = ["bad-fs" if r[0] > 0 else "good" for r in X]
    return C45Classifier().fit(Dataset(X, y, [e.name for e in FEATURES]))


@pytest.fixture(scope="module")
def clf():
    return _make_clf()


@pytest.fixture()
def pool(clf):
    """A router fronting two in-process workers; yields (router, client)."""
    workers = {"w0": ServerThread(clf), "w1": ServerThread(clf)}
    rt = RouterThread()
    try:
        host, port = rt.start()
        for name, thread in workers.items():
            whost, wport = thread.start()
            rt.call(rt.router.add_worker, name, whost, wport)
        with ServeClient(host, port) as client:
            yield rt, workers, client
    finally:
        rt.stop()
        for thread in workers.values():
            thread.stop()


# ------------------------------------------------------------- hash ring


names = st.lists(
    st.text(alphabet="abcdefgh0123456789-", min_size=1, max_size=12),
    min_size=1, max_size=6, unique=True,
)
keys = st.lists(st.text(min_size=1, max_size=24), min_size=1, max_size=32,
                unique=True)


@settings(max_examples=50, deadline=None)
@given(members=names, sources=keys)
def test_assignment_is_pure_function_of_membership(members, sources):
    ring_a = HashRing(tuple(members))
    ring_b = HashRing(tuple(reversed(members)))
    for source in sources:
        assert ring_a.assign(source) == ring_b.assign(source)
        assert ring_a.assign(source) in members


@settings(max_examples=50, deadline=None)
@given(members=names, sources=keys)
def test_redistribution_only_on_membership_change(members, sources):
    """Removing one member moves only the keys it owned; re-adding it
    restores the exact original assignment (hot restart = no movement)."""
    ring = HashRing(tuple(members))
    before = {s: ring.assign(s) for s in sources}
    victim = members[0]
    ring.remove(victim)
    if len(members) > 1:
        for source, owner in before.items():
            if owner != victim:
                assert ring.assign(source) == owner
    ring.add(victim)
    assert {s: ring.assign(s) for s in sources} == before


def test_ring_rejects_duplicates_and_unknown():
    ring = HashRing(("a",))
    with pytest.raises(ServeError):
        ring.add("a")
    with pytest.raises(ServeError):
        ring.remove("b")
    ring.remove("a")
    with pytest.raises(ServeError):
        ring.assign("key")


def test_ring_spreads_sources_over_members():
    ring = HashRing(("w0", "w1", "w2", "w3"))
    owners = {ring.assign(f"src-{i}") for i in range(256)}
    assert owners == {"w0", "w1", "w2", "w3"}


# --------------------------------------------------------------- routing


def test_route_op_matches_ring(pool):
    rt, _, client = pool
    for i in range(16):
        source = f"pid-{i}"
        resp = client.request({"op": "route", "source": source})
        assert resp["worker"] == rt.router.ring.assign(source)
        assert resp["up"] is True


def test_classify_through_router_bit_identical(clf, pool):
    _, _, client = pool
    rng = np.random.default_rng(11)
    X = rng.normal(size=(64, N_FEATURES))
    via_router = client.classify_batch(X, rid=1, source="pid-9")
    with ServerThread(clf) as (host, port):
        with ServeClient(host, port) as direct:
            expected = direct.classify_batch(X, rid=1)
    assert via_router == expected


def test_single_vector_and_counts_pass_through(pool):
    _, _, client = pool
    rng = np.random.default_rng(3)
    label = client.classify(rng.normal(size=N_FEATURES), rid=7)
    assert label in ("good", "bad-fs")


def test_source_affinity_in_aggregator(pool):
    rt, _, client = pool
    rng = np.random.default_rng(4)
    X = rng.normal(size=(12, N_FEATURES))
    client.classify_batch(X, rid=1, source="hot-loop")
    summary = client.request({"op": "verdicts", "source": "hot-loop"})
    verdicts = summary["verdicts"]
    assert verdicts["windows"] == 12
    assert verdicts["worker"] == rt.router.ring.assign("hot-loop")


def test_fleet_summary_over_router(pool):
    _, _, client = pool
    rng = np.random.default_rng(6)
    client.classify_batch(rng.normal(size=(4, N_FEATURES)), source="a")
    client.classify_batch(rng.normal(size=(4, N_FEATURES)), source="b")
    fleet = client.request({"op": "fleet"})["fleet"]
    assert fleet["sources"] >= 2
    assert sum(fleet["labels"].values()) == fleet["windows"]


def test_ledger_exact_after_traffic(pool):
    _, _, client = pool
    rng = np.random.default_rng(8)
    for i in range(10):
        client.classify_batch(rng.normal(size=(8, N_FEATURES)),
                              rid=i, source=f"src-{i % 3}")
    stats = client.stats()
    v = stats["vectors"]
    assert v["received"] == (v["completed"] + v["shed"] + v["errors"]
                             + v["inflight"])
    assert v["errors"] == 0


def test_admission_sheds_with_explicit_accounting(clf):
    admission = AdmissionController(rate=1e-9, burst=16)
    rt = RouterThread(admission=admission)
    worker = ServerThread(clf)
    try:
        host, port = rt.start()
        whost, wport = worker.start()
        rt.call(rt.router.add_worker, "w0", whost, wport)
        rng = np.random.default_rng(9)
        with ServeClient(host, port) as client:
            ok = client.classify_batch(rng.normal(size=(16, N_FEATURES)),
                                       rid=1, source="s")
            assert len(ok) == 16
            with pytest.raises(ServeError, match="overloaded"):
                client.classify_batch(rng.normal(size=(16, N_FEATURES)),
                                      rid=2, source="s")
            stats = client.stats()
        assert stats["shed"]["admission"] == 16
        assert stats["vectors"]["shed"] == 16
        assert stats["shed_by_source"]["s"] == 16
        v = stats["vectors"]
        assert v["received"] == (v["completed"] + v["shed"] + v["errors"]
                                 + v["inflight"])
    finally:
        rt.stop()
        worker.stop()


def test_no_workers_yields_unavailable(clf):
    rt = RouterThread()
    try:
        host, port = rt.start()
        with ServeClient(host, port) as client:
            with pytest.raises(ServeError, match="unavailable|failed"):
                client.classify(np.zeros(N_FEATURES), rid=1)
            stats = client.stats()
        assert stats["shed"]["unavailable"] == 1
    finally:
        rt.stop()


def test_dead_worker_sheds_then_reconnect_recovers(clf, pool):
    rt, workers, client = pool
    rng = np.random.default_rng(10)
    # Find a source routed to w0, then take w0 down.
    source = next(f"k-{i}" for i in range(64)
                  if rt.router.ring.assign(f"k-{i}") == "w0")
    rt.call(rt.router.mark_worker_down, "w0")
    with pytest.raises(ServeError, match="unavailable"):
        client.classify_batch(rng.normal(size=(4, N_FEATURES)),
                              rid=1, source=source)
    # Sources on w1 are untouched while w0 is down.
    other = next(f"k-{i}" for i in range(64)
                 if rt.router.ring.assign(f"k-{i}") == "w1")
    assert len(client.classify_batch(rng.normal(size=(4, N_FEATURES)),
                                     rid=2, source=other)) == 4
    # Reconnect at a fresh address: same name, shard assignment intact.
    replacement = ServerThread(clf)
    try:
        whost, wport = replacement.start()
        before = rt.router.ring.assign(source)
        rt.call(rt.router.set_worker_address, "w0", whost, wport)
        assert rt.router.ring.assign(source) == before
        assert len(client.classify_batch(rng.normal(size=(4, N_FEATURES)),
                                         rid=3, source=source)) == 4
        stats = client.stats()
        assert stats["workers"]["w0"]["restarts"] == 1
        assert stats["shed"]["unavailable"] == 4
        v = stats["vectors"]
        assert v["received"] == (v["completed"] + v["shed"] + v["errors"]
                                 + v["inflight"])
    finally:
        replacement.stop()


def test_raw_bytes_forwarded_verbatim(pool):
    """Oddly-formatted (but valid) classify lines survive the fast path:
    the worker sees the client's exact bytes, not a re-encoding."""
    rt, _, client = pool
    rng = np.random.default_rng(12)
    vec = ", ".join(repr(float(v)) for v in rng.normal(size=N_FEATURES))
    line = ('{ "op" : "classify" ,\t"id": 42, "source": "spaced out", '
            f'"features": [{vec}]}}\n')
    resp = client.request(json.loads(line))  # sanity: it is valid JSON
    assert "label" in resp
    # Now raw over the wire, preserving the weird whitespace.
    with socket.create_connection((rt.router.host, rt.router.port)) as s:
        s.sendall(line.encode())
        buf = s.makefile("rb").readline()
    raw_resp = json.loads(buf)
    assert raw_resp["id"] == 42
    assert raw_resp["label"] == resp["label"]


def test_bad_json_answered_not_forwarded(pool):
    rt, _, client = pool
    resp = client.request({"op": "nonsense"})
    assert resp["error"] == "bad_request"
    with socket.create_connection((rt.router.host, rt.router.port)) as s:
        s.sendall(b'this is not json\n')
        resp2 = json.loads(s.makefile("rb").readline())
    assert resp2["error"] == "bad_request"
    # Malformed input is answered by the router, never forwarded, so the
    # ledger is untouched and worker FIFOs stay aligned.
    v = client.stats()["vectors"]
    assert v["received"] == (v["completed"] + v["shed"] + v["errors"]
                             + v["inflight"])


@pytest.mark.parametrize("body", list(MALFORMED.values()),
                         ids=list(MALFORMED))
def test_malformed_line_is_an_error_not_a_lost_shard(pool, body):
    """A bad line is the sender's error: the worker answers it, the link
    stays up, and the next good line on the same shard completes."""
    rt, _, client = pool
    source = next(f"m-{i}" for i in range(64)
                  if rt.router.ring.assign(f"m-{i}") == "w0")
    resp = client.request({"op": "classify", "id": 1, "source": source,
                           **body})
    assert resp["id"] == 1 and resp["error"] == "bad_request"
    stats = client.stats()
    assert stats["workers"]["w0"]["up"]
    v = stats["vectors"]
    assert v["shed"] == 0 and v["completed"] == 0
    assert v["errors"] == v["received"] > 0
    with ServeClient(rt.router.host, rt.router.port) as other:
        labels = other.classify_batch(np.full((3, N_FEATURES), 0.5), rid=2,
                                      source=source)
    assert len(labels) == 3
    v = client.stats()["vectors"]
    assert v["completed"] == 3 and v["shed"] == 0
    assert v["received"] == (v["completed"] + v["shed"] + v["errors"]
                             + v["inflight"])


def test_ping_identifies_router(pool):
    _, _, client = pool
    resp = client.request({"op": "ping"})
    assert resp["ok"] is True
    assert resp["server"] == "repro-serve-router"


def test_reload_broadcasts_to_all_workers(clf, tmp_path, pool):
    from repro.ml.persistence import save_classifier

    _, workers, client = pool
    path = tmp_path / "model.json"
    save_classifier(clf, path)
    resp = client.request({"op": "reload", "path": str(path)})
    assert resp["reloaded"] is True
    assert set(resp["workers"]) == set(workers)
