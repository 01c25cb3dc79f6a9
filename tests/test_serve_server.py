"""End-to-end tests for the detection server (repro.serve.server) and its
client, over real TCP connections on an ephemeral port.

The contract under test: every accepted request gets exactly one response
in order; overload is an explicit ``overloaded`` response, never an
unbounded buffer; stop(drain=True) answers everything already queued; a
model reload never drops a connection.
"""

from __future__ import annotations

import json
import socket
import time

import numpy as np
import pytest

from repro.core.training import FEATURES
from repro.errors import ServeError
from repro.ml.c45 import C45Classifier
from repro.ml.dataset import Dataset
from repro.pmu.events import NORMALIZER
from repro.serve.client import ServeClient
from repro.serve.loadgen import run_loadgen
from repro.serve.server import DetectionServer, ServerThread
from repro.utils.stats import tally

N_FEATURES = len(FEATURES)

#: Classify bodies that decode as JSON but break the request schema.  Each
#: must get a ``bad_request`` reply carrying its id; the connection stays
#: open for the lines behind it.
MALFORMED = {
    "null-count": {"counts": {NORMALIZER.name: None}},
    "string-count": {"counts": {**{e.name: 2.0 for e in FEATURES},
                                NORMALIZER.name: "4"}},
    "overflowing-count": {"counts": {**{e.name: 1e300 for e in FEATURES},
                                     NORMALIZER.name: 1e-300}},
    "string-n": {"n": "abc", "batch": [[0.5] * N_FEATURES] * 2},
    "ragged-batch": {"n": 2, "batch": [[0.5] * N_FEATURES,
                                       [0.5] * (N_FEATURES - 1)]},
    "nested-features": {"features": [[0.5, 0.5]] + [0.5] * (N_FEATURES - 1)},
}


def _make_clf(flip=False):
    rng = np.random.default_rng(5)
    X = rng.normal(size=(200, N_FEATURES))
    hot, cold = ("good", "bad-fs") if flip else ("bad-fs", "good")
    y = [hot if r[0] > 0 else cold for r in X]
    return C45Classifier().fit(Dataset(X, y, [e.name for e in FEATURES]))


@pytest.fixture(scope="module")
def clf():
    return _make_clf()


@pytest.fixture
def served(clf):
    thread = ServerThread(clf, port=0)
    host, port = thread.start()
    yield thread, host, port
    thread.stop()


class TestProtocol:
    def test_classify_matches_offline_predict(self, served, clf, rng):
        _, host, port = served
        X = rng.normal(size=(40, N_FEATURES))
        expected = clf.predict(X)
        with ServeClient(host, port) as c:
            got = [c.classify(row, rid=i) for i, row in enumerate(X)]
        assert got == list(expected)

    def test_counts_path_normalizes(self, served, clf):
        _, host, port = served
        raw = {e.name: 2.0 for e in FEATURES}
        raw[NORMALIZER.name] = 4.0
        features = np.full(N_FEATURES, 0.5)
        with ServeClient(host, port) as c:
            assert c.classify_counts(raw) == c.classify(features)

    def test_ping_and_stats(self, served):
        _, host, port = served
        with ServeClient(host, port) as c:
            assert c.ping()
            stats = c.stats()
        assert stats["accepting"] is True
        assert stats["model"]["nodes"] >= 1
        assert set(stats["config"]) == {"max_batch", "max_wait_ms", "backlog"}

    def test_bad_requests_get_error_not_disconnect(self, served):
        _, host, port = served
        with ServeClient(host, port) as c:
            r = c.request({"op": "classify", "id": 1, "features": [1.0]})
            assert r["error"] == "bad_request"
            r = c.request({"op": "classify", "id": 2})
            assert r["error"] == "bad_request"
            r = c.request({"op": "wat"})
            assert r["error"] == "bad_request"
            r = c.request({"op": "classify", "id": 3,
                           "counts": ["not", "a", "dict"]})
            assert r["error"] == "bad_request"
            assert c.ping()  # connection survived all of it

    @pytest.mark.parametrize("body", list(MALFORMED.values()),
                             ids=list(MALFORMED))
    def test_malformed_classify_answered_on_same_connection(self, served,
                                                            body):
        thread, host, port = served
        bad = {"op": "classify", "id": 1, **body}
        good = {"op": "classify", "id": 2, "features": [0.5] * N_FEATURES}
        with socket.create_connection((host, port), timeout=10.0) as sock, \
                sock.makefile("rb") as rfile:
            # Pipelined: the good line is already buffered behind the bad.
            sock.sendall(json.dumps(bad).encode() + b"\n"
                         + json.dumps(good).encode() + b"\n")
            replies = [json.loads(rfile.readline()) for _ in range(2)]
        assert replies[0]["id"] == 1
        assert replies[0]["error"] == "bad_request"
        assert replies[0]["detail"]
        assert replies[1]["id"] == 2 and "label" in replies[1]
        assert thread.server.classified == 1

    def test_invalid_json_line(self, served):
        _, host, port = served
        with socket.create_connection((host, port)) as sock:
            sock.sendall(b"{nope\n")
            resp = json.loads(sock.makefile("rb").readline())
        assert resp["error"] == "bad_request"

    def test_responses_in_request_order(self, served, clf, rng):
        _, host, port = served
        X = rng.normal(size=(300, N_FEATURES))
        result = run_loadgen(host, port, X, ["t"] * 300, window=64)
        assert result.completed == 300
        assert result.errors == 0 and result.shed == 0
        assert result.labels == tally(clf.predict(X))
        # One connection is answered strictly in request order.
        with ServeClient(host, port) as c:
            for i, row in enumerate(X[:64]):
                c._send({"op": "classify", "id": i,
                         "features": [float(v) for v in row]})
            assert [c._recv()["id"] for _ in range(64)] == list(range(64))

    def test_client_refuses_dead_server(self):
        with pytest.raises(ServeError):
            ServeClient("127.0.0.1", 1, timeout=0.5)


class TestBatching:
    def test_pipelined_load_forms_batches(self, clf, rng):
        thread = ServerThread(clf, port=0, max_batch=64)
        host, port = thread.start()
        try:
            X = rng.normal(size=(1000, N_FEATURES))
            result = run_loadgen(host, port, X, ["t"] * 1000, window=256)
            stats = result.server
            assert result.completed == 1000
            assert stats["max_batch_seen"] > 1  # batching actually engaged
            assert stats["classified"] == 1000
        finally:
            thread.stop()


class TestBackpressure:
    def test_overload_sheds_explicitly(self, clf, rng):
        # Backlog of 8 with the batcher paused: at most 9 requests can be
        # in flight (8 queued + 1 held by the batcher); every later one
        # must come back as a typed `overloaded` response, in order.
        thread = ServerThread(clf, port=0, backlog=8)
        host, port = thread.start()
        try:
            thread.pause_batching()
            X = rng.normal(size=(50, N_FEATURES))
            with ServeClient(host, port) as c:
                for i, row in enumerate(X):
                    c._send({"op": "classify", "id": i,
                             "features": [float(v) for v in row]})
                time.sleep(0.3)  # let the reader admit or shed all 50
                thread.resume_batching()
                responses = [c._recv() for _ in range(50)]
            labels = [r for r in responses if "label" in r]
            sheds = [r for r in responses if r.get("error") == "overloaded"]
            assert len(labels) + len(sheds) == 50
            # 8 queued, plus the one the batcher may have grabbed before
            # the pause landed.
            assert len(labels) in (8, 9)
            assert [r["id"] for r in responses] == list(range(50))
            assert thread.server.shed == len(sheds)
            assert thread.server.classified == len(labels)
        finally:
            thread.stop()

    def test_bulk_client_counts_sheds(self, clf, rng):
        import threading

        thread = ServerThread(clf, port=0, backlog=2)
        host, port = thread.start()
        try:
            thread.pause_batching()
            timer = threading.Timer(0.5, thread.resume_batching)
            timer.start()
            try:
                result = run_loadgen(host, port,
                                     rng.normal(size=(20, N_FEATURES)),
                                     ["t"] * 20, window=20)
            finally:
                timer.cancel()
            assert result.shed > 0
            assert result.errors == 0
            assert result.completed + result.shed == 20
            assert result.server["shed"] == result.shed
        finally:
            thread.stop()


class TestDrain:
    def test_stop_drains_queued_requests(self, clf, rng):
        thread = ServerThread(clf, port=0, backlog=64)
        host, port = thread.start()
        client = ServeClient(host, port)
        try:
            thread.pause_batching()
            X = rng.normal(size=(10, N_FEATURES))
            for i, row in enumerate(X):
                client._send({"op": "classify", "id": i,
                              "features": [float(v) for v in row]})
            time.sleep(0.2)  # let the reader enqueue them
            thread.resume_batching()
            thread.stop()  # drain=True: all 10 must still be answered
            responses = [client._recv() for _ in range(10)]
            assert all("label" in r for r in responses)
            assert sorted(r["id"] for r in responses) == list(range(10))
        finally:
            client.close()

    def test_classify_after_stop_refused(self, clf):
        thread = ServerThread(clf, port=0)
        host, port = thread.start()
        thread.stop()
        with pytest.raises(ServeError):
            ServeClient(host, port, timeout=0.5)


class TestReload:
    def test_hot_reload_swaps_model(self, clf, tmp_path, rng):
        from repro.ml.persistence import save_classifier

        flipped = _make_clf(flip=True)
        path = tmp_path / "flipped.json"
        save_classifier(flipped, path)
        probe = np.full(N_FEATURES, 2.0)  # r[0] > 0: clf and flipped disagree
        thread = ServerThread(clf, port=0)
        host, port = thread.start()
        try:
            with ServeClient(host, port) as c:
                before = c.classify(probe)
                info = c.reload(str(path))
                after = c.classify(probe)  # same connection survives
            assert info["reloaded"] is True
            assert before == clf.predict(probe[None, :])[0]
            assert after == flipped.predict(probe[None, :])[0]
            assert before != after
            assert thread.server.reloads == 1
        finally:
            thread.stop()

    def test_reload_failure_keeps_old_model(self, clf, tmp_path):
        thread = ServerThread(clf, port=0)
        host, port = thread.start()
        try:
            with ServeClient(host, port) as c:
                with pytest.raises(ServeError):
                    c.reload(str(tmp_path / "missing.json"))
                with pytest.raises(ServeError, match="null byte"):
                    c.reload("model\x00.json")
                assert c.ping()
                assert c.classify(np.zeros(N_FEATURES)) in (
                    "good", "bad-fs")
        finally:
            thread.stop()


class TestServerConstruction:
    def test_bad_params_rejected(self, clf):
        with pytest.raises(ServeError):
            DetectionServer(clf, max_batch=0)
        with pytest.raises(ServeError):
            DetectionServer(clf, max_wait_s=-1)
        with pytest.raises(ServeError):
            DetectionServer(clf, backlog=0)

    def test_double_start_rejected(self, clf):
        thread = ServerThread(clf, port=0)
        thread.start()
        try:
            with pytest.raises(ServeError):
                thread.start()
        finally:
            thread.stop()

    def test_bind_failure_surfaces(self, clf, served):
        _, host, port = served
        with pytest.raises(ServeError):
            ServerThread(clf, host=host, port=port).start()
