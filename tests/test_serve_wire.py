"""The serve tier's one wire decoder: orjson, with strict feature rows.

* a value that is not a finite number gets ``bad_request`` from a server
  and through a router, and the ledgers stay exact;
* the router's regex peek agrees with ``orjson.loads`` of the same bytes
  on well-formed classify lines;
* ``orjson.loads(json.dumps(X.tolist()))`` gives back ``X`` bit for bit;
* a line cut off by EOF, a half-closed client and a line over
  ``STREAM_LIMIT`` each get their replies, and the ledgers stay exact.
"""

from __future__ import annotations

import json
import socket
import time

import numpy as np
import orjson
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.core.training import FEATURES
from repro.serve.router import DetectionRouter, RouterThread
from repro.serve.server import STREAM_LIMIT, ServerThread
from tests.test_serve_server import _make_clf

N_FEATURES = len(FEATURES)

#: JSON tokens that used to classify as ``good``: NaN compares False at
#: every tree node.  orjson refuses the last two at decode; the strict row
#: check refuses the first two.
NOT_FINITE = ["null", '"1"', "NaN", "1e400"]


@pytest.fixture(scope="module")
def clf():
    return _make_clf()


@pytest.fixture(params=["server", "router"])
def endpoint(request, clf):
    """(host, port, ledger) of a direct server or a router over one worker.

    ``ledger()`` gives (vectors classified, vectors errored) and asserts
    the router's balance where there is one.
    """
    worker = ServerThread(clf)
    whost, wport = worker.start()
    if request.param == "server":
        def ledger():
            return worker.server.classified, None

        try:
            yield whost, wport, ledger
        finally:
            worker.stop()
        return
    rt = RouterThread()
    try:
        host, port = rt.start()
        rt.call(rt.router.add_worker, "w0", whost, wport)

        def ledger():
            v = rt.router.stats()["vectors"]
            assert v["received"] == (v["completed"] + v["shed"]
                                     + v["errors"] + v["inflight"])
            assert v["shed"] == 0
            return v["completed"], v["errors"]

        yield host, port, ledger
    finally:
        rt.stop()
        worker.stop()


@pytest.mark.parametrize("token", NOT_FINITE)
@pytest.mark.parametrize("framing", ["features", "batch"])
def test_not_finite_value_is_bad_request(endpoint, token, framing):
    host, port, ledger = endpoint
    good = ", ".join(["0.5"] * N_FEATURES)
    bad = ", ".join([token] + ["0.5"] * (N_FEATURES - 1))
    if framing == "features":
        body, n_bad = f'"features": [{bad}]', 1
    else:
        body, n_bad = f'"n": 2, "batch": [[{good}], [{bad}]]', 2
    lines = (f'{{"op": "classify", "id": 1, "source": "s", {body}}}\n'
             f'{{"op": "classify", "id": 2, "source": "s", '
             f'"features": [{good}]}}\n')
    with socket.create_connection((host, port), timeout=10.0) as sock, \
            sock.makefile("rb") as rfile:
        sock.sendall(lines.encode())
        replies = [json.loads(rfile.readline()) for _ in range(2)]
    assert replies[0]["error"] == "bad_request"
    assert "label" not in replies[0] and "labels" not in replies[0]
    assert replies[1]["id"] == 2 and "label" in replies[1]
    completed, errors = ledger()
    assert completed == 1
    assert errors in (None, n_bad)


def _classify_line(rid, features):
    return (f'{{"op": "classify", "id": {rid}, "source": "s", '
            f'"features": [{features}]}}\n').encode()


def test_unterminated_final_line_does_not_glue_onto_the_next(endpoint):
    host, port, ledger = endpoint
    good = ", ".join(["0.5"] * N_FEATURES)
    with socket.create_connection((host, port), timeout=10.0) as sock:
        sock.sendall(b'{"op": "classify", "id": 0, "source": "s", '
                     b'"features": [1.0, 2')
    # Wait until the cut-off line is answered (the router counts it as
    # an error), so the next client's lines reach the worker after it.
    deadline = time.monotonic() + 10.0
    while ledger()[1] not in (None, 1):
        assert time.monotonic() < deadline, "cut-off line never answered"
        time.sleep(0.01)
    with socket.create_connection((host, port), timeout=10.0) as sock, \
            sock.makefile("rb") as rfile:
        sock.sendall(b"".join(_classify_line(i, good) for i in (1, 2, 3)))
        replies = [json.loads(rfile.readline()) for _ in range(3)]
    assert [r["id"] for r in replies] == [1, 2, 3]
    assert all("label" in r for r in replies)
    completed, errors = ledger()
    assert completed == 3
    assert errors in (None, 1)


def test_half_closed_client_gets_every_reply(endpoint):
    host, port, ledger = endpoint
    good = ", ".join(["0.5"] * N_FEATURES)
    with socket.create_connection((host, port), timeout=10.0) as sock, \
            sock.makefile("rb") as rfile:
        sock.sendall(_classify_line(1, good) + b'{"op": "ping", "id": 2}\n'
                     + _classify_line(3, good))
        sock.shutdown(socket.SHUT_WR)
        replies = [json.loads(line) for line in rfile]
    # No reply order is promised across a router's shards and control ops.
    assert sorted(r["id"] for r in replies) == [1, 2, 3]
    assert sum("label" in r for r in replies) == 2
    assert ledger()[0] == 2


def test_oversized_line_is_bad_request_then_close(endpoint):
    host, port, ledger = endpoint
    big = b'{"op": "ping", "pad": "' + b"x" * STREAM_LIMIT + b'"}\n'
    with socket.create_connection((host, port), timeout=30.0) as sock, \
            sock.makefile("rb") as rfile:
        sock.sendall(big + b'{"op": "ping", "id": 7}\n')
        sock.shutdown(socket.SHUT_WR)
        replies = [json.loads(line) for line in rfile]
    # One reply without an id, then a clean EOF; the ping behind the
    # unframed line is not answered.
    assert replies == [{"error": "bad_request",
                        "detail": f"request line longer than "
                                  f"{STREAM_LIMIT} bytes"}]
    assert ledger()[0] == 0


# ------------------------------------------------- peek == orjson.loads

_WS = st.sampled_from(["", " ", "  ", "\t", " \t "])
_FLOATS = st.floats(allow_nan=False, allow_infinity=False)
_IDS = st.one_of(st.integers(-2**63, 2**63 - 1), st.text(max_size=16))


@st.composite
def classify_lines(draw):
    """A well-formed classify line with varied key order, whitespace, id,
    ``source`` text and framing."""
    ascii_only = draw(st.booleans())
    fields = {}
    if draw(st.booleans()):
        fields["op"] = json.dumps("classify")
    if draw(st.booleans()):
        fields["id"] = json.dumps(draw(_IDS), ensure_ascii=ascii_only)
    if draw(st.booleans()):
        fields["source"] = json.dumps(draw(st.text(min_size=1, max_size=24)),
                                      ensure_ascii=ascii_only)
    row = st.lists(_FLOATS, min_size=N_FEATURES, max_size=N_FEATURES)
    if draw(st.booleans()):
        fields["features"] = json.dumps(draw(row))
    else:
        rows = draw(st.lists(row, min_size=1, max_size=4))
        fields["n"] = str(len(rows))
        fields["batch"] = json.dumps(rows)
    keys = draw(st.permutations(sorted(fields)))
    parts = []
    for key in keys:
        parts.append(f'"{key}"{draw(_WS)}:{draw(_WS)}{fields[key]}')
    sep = draw(_WS)
    line = "{" + draw(_WS) + f",{sep}".join(parts) + draw(_WS) + "}"
    return line.encode() + b"\n"


@settings(max_examples=300, deadline=None)
@given(classify_lines())
def test_peek_agrees_with_orjson(line):
    doc = orjson.loads(line)
    facts = DetectionRouter()._peek_classify(line, "conn-1")
    # None sends the line to the full parse, which is orjson itself (a
    # source spelled "batch" reads as a batch key to the byte scan).
    assume(facts is not None)
    source, n, id_token = facts
    assert source == doc.get("source", "conn-1")
    assert n == (len(doc["batch"]) if "batch" in doc else 1)
    if "id" in doc:
        assert id_token is not None
        assert orjson.loads(id_token) == doc["id"]
    else:
        assert id_token is None


# ------------------------------------------------ exact float round trip

_EXTREMES = [5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
             -0.0, 0.1, 1 / 3]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=4 * 15))
@example([int(np.float64(v).view(np.uint64)) for v in _EXTREMES])
def test_orjson_decodes_doubles_bit_identically(bits):
    X = np.array(bits, dtype=np.uint64).view(np.float64)
    X = X[np.isfinite(X)]
    decoded = np.array(orjson.loads(json.dumps(X.tolist())),
                       dtype=np.float64).reshape(X.shape)
    assert np.array_equal(decoded.view(np.uint64), X.view(np.uint64))
