"""The online pipeline: client -> router -> worker parse -> batch queue ->
predict_batch -> encode, driven by a closed-loop load generator.

``Fleet`` runs ``host.py``, which starts the program's own fleet
(``repro.serve.fleet.FleetThread``) and times its start-up.
``closed_loop`` keeps a fixed number of request lines in flight on each of
a few client connections: a client sends its next line only when a reply
frees a slot, so the offered load follows the fleet's speed and no queue
grows without bound.  Every reply is checked against the label the
committed tree gives the same vector in this process.
"""

from __future__ import annotations

import json
import os
import select
import selectors
import socket
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

HERE = Path(__file__).resolve().parent
START_TIMEOUT_S = 90.0  # per fleet start-up


class Fleet:
    """The fleet host process, spoken to over its stdin and stdout.

    With ``trace`` the host gets this directory on its ``PYTHONPATH`` and
    ``PERFBENCH_TRACE=1``, so it and its workers import the layer timers
    of ``sitecustomize.py`` at start-up.
    """

    def __init__(self, model: Path, trace: int, setups: int) -> None:
        env = dict(os.environ)
        env.pop("PERFBENCH_TRACE", None)
        if trace:
            env["PERFBENCH_TRACE"] = "1"
            env["PYTHONPATH"] = os.pathsep.join(
                p for p in (str(HERE), str(HERE.parent / "src"),
                            env.get("PYTHONPATH")) if p)
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "host.py"), str(model),
             "--setups", str(setups)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env)
        self._buf = b""
        try:
            ready = self._readline(START_TIMEOUT_S * setups)
        except BaseException:
            self.stop()
            raise
        self.address = (ready["host"], ready["port"])
        self.setup_times: List[float] = ready["setup_s"]

    def _readline(self, timeout: float) -> dict:
        deadline = time.monotonic() + timeout
        fd = self.proc.stdout.fileno()
        while b"\n" not in self._buf:
            left = deadline - time.monotonic()
            if left <= 0 or not select.select([fd], [], [], left)[0]:
                raise RuntimeError(f"fleet host did not answer within "
                                   f"{timeout:.0f}s")
            chunk = os.read(fd, 65536)
            if not chunk:
                raise RuntimeError(f"fleet host exited with code "
                                   f"{self.proc.wait()}")
            self._buf += chunk
        line, self._buf = self._buf.split(b"\n", 1)
        return json.loads(line)

    def snap(self) -> dict:
        self.proc.stdin.write(b"snap\n")
        self.proc.stdin.flush()
        return self._readline(30.0)

    def stop(self) -> None:
        try:
            self.proc.stdin.close()
        except OSError:
            pass
        try:
            self.proc.wait(timeout=30.0)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def request_lines(X: np.ndarray, sources: List[str], batch: int
                  ) -> List[Tuple[bytes, List[int]]]:
    """Request bodies (everything after the id) with their row indices.

    ``batch == 1`` sends one ``features`` vector per line; larger values
    send ``batch`` distinct vectors of one source per line.
    """
    by_source: Dict[str, List[int]] = {}
    for i, src in enumerate(sources):
        by_source.setdefault(src, []).append(i)
    out = []
    for src, idx in sorted(by_source.items()):
        if batch == 1:
            for i in idx:
                body = json.dumps({"source": src,
                                   "features": X[i].tolist()})
                out.append((body, [i]))
        else:
            for k in range(0, len(idx) - batch + 1, batch):
                rows = idx[k:k + batch]
                body = json.dumps({"source": src, "n": batch,
                                   "batch": X[rows].tolist()})
                out.append((body, rows))
    return [(b', ' + body[1:].encode() + b"\n", rows)
            for body, rows in out]


class _Conn:
    __slots__ = ("sock", "buf", "inflight", "next_id", "cursor")

    def __init__(self, sock: socket.socket, cursor: int) -> None:
        self.sock = sock
        self.buf = b""
        self.inflight: Dict[int, Tuple[float, int]] = {}
        self.next_id = 0
        self.cursor = cursor


class LoopResult:
    """Replies of closed-loop phases, with their completion times.

    ``windows`` holds the timed ``(start, end)`` of every phase; replies
    outside them are checked but not timed.
    """

    def __init__(self) -> None:
        self.windows: List[Tuple[float, float]] = []
        self.done_at: List[float] = []
        self.latency: List[float] = []
        self.vectors: List[int] = []
        self.sent_vectors = 0
        self.failed_vectors = 0
        self.failures: List[str] = []


def closed_loop(address: Tuple[str, int], lines, expected: np.ndarray,
                connections: int, window: int, warm: float, seconds: float,
                out: LoopResult, cursor: int = 0) -> int:
    """Keep ``window`` lines in flight per connection for ``warm +
    seconds``; replies in the last ``seconds`` are timed into ``out``.

    Lines are sent round-robin from ``lines``, each connection starting at
    its own offset from ``cursor``.  Sending stops at the deadline; replies
    still in flight are drained and checked but fall outside the timed
    window.  Returns the cursor for the next phase.
    """
    sel = selectors.DefaultSelector()
    conns = []
    n_lines = len(lines)
    for k in range(connections):
        sock = socket.create_connection(address, timeout=10.0)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock.setblocking(False)
        conn = _Conn(sock, cursor + k * n_lines // connections)
        conns.append(conn)
        sel.register(sock, selectors.EVENT_READ, conn)

    def send(conn: _Conn, count: int) -> None:
        if count <= 0:
            return
        burst = []
        now = time.perf_counter()
        for _ in range(count):
            j = conn.cursor % n_lines
            conn.cursor += 1
            rid = conn.next_id
            conn.next_id += 1
            body, rows = lines[j]
            burst.append(b'{"op": "classify", "id": %d' % rid + body)
            conn.inflight[rid] = (now, j)
            out.sent_vectors += len(rows)
        conn.sock.setblocking(True)
        conn.sock.sendall(b"".join(burst))
        conn.sock.setblocking(False)

    start = time.perf_counter() + warm
    deadline = start + seconds
    out.windows.append((start, deadline))
    try:
        for conn in conns:
            send(conn, window)
        while any(c.inflight for c in conns):
            if time.perf_counter() > deadline + 30.0:
                raise RuntimeError("replies still missing 30s after the "
                                   "deadline")
            for key, _ in sel.select(timeout=1.0):
                conn = key.data
                chunk = conn.sock.recv(1 << 20)
                if not chunk:
                    raise RuntimeError("router closed a client connection")
                conn.buf += chunk
                *replies, conn.buf = conn.buf.split(b"\n")
                now = time.perf_counter()
                for raw in replies:
                    _check(json.loads(raw), conn, lines, expected, now,
                           start, deadline, out)
                if now < deadline:
                    send(conn, window - len(conn.inflight))
    finally:
        for conn in conns:
            sel.unregister(conn.sock)
            conn.sock.close()
        sel.close()
    return conns[0].cursor


def _check(reply: dict, conn: _Conn, lines, expected, now: float,
           start: float, deadline: float, out: LoopResult) -> None:
    sent_at, j = conn.inflight.pop(reply.get("id"), (None, None))
    if j is None:
        raise RuntimeError(f"reply to no request: {reply!r}")
    rows = lines[j][1]
    labels = reply.get("labels")
    if labels is None and "label" in reply:
        labels = [reply["label"]]
    if labels is None or list(expected[rows]) != labels:
        out.failed_vectors += len(rows)
        if len(out.failures) < 5:
            out.failures.append(f"line {j}: {reply!r}"[:200])
        return
    if start <= now <= deadline:
        out.done_at.append(now)
        out.latency.append(now - sent_at)
        out.vectors.append(len(rows))


def slice_stats(result: LoopResult, width: float
                ) -> Tuple[List[float], List[float], List[float]]:
    """Vectors per second, p50 and p99 round trip (ms) of every slice.

    Each timed window is cut into whole slices of ``width`` seconds; a
    slice with no reply is kept as a zero rate and no latency.
    """
    done = np.asarray(result.done_at)
    lat = np.asarray(result.latency) * 1e3
    vec = np.asarray(result.vectors)
    rates, p50, p99 = [], [], []
    for start, end in result.windows:
        for k in range(int((end - start) / width)):
            lo = start + k * width
            sel = (done >= lo) & (done < lo + width)
            rates.append(float(vec[sel].sum()) / width)
            if sel.any():
                p50.append(float(np.percentile(lat[sel], 50)))
                p99.append(float(np.percentile(lat[sel], 99)))
    return rates, p50, p99


def host_ledger(before: dict, after: dict
                ) -> Tuple[Dict[str, List[float]], Dict[str, float]]:
    """Per-layer deltas summed over the fleet, and CPU seconds by role."""
    from ledger import delta

    layers: Dict[str, List[float]] = {}
    cpu = {"router": after["cpu_s"] - before["cpu_s"], "worker": 0.0}
    pairs = [(before["ledger"], after["ledger"])]
    for name, stats in after["workers"].items():
        b, a = before["workers"][name]["perfbench"], stats["perfbench"]
        cpu["worker"] += a["cpu_s"] - b["cpu_s"]
        pairs.append((b["ledger"], a["ledger"]))
    for b, a in pairs:
        for name, row in delta(a, b).items():
            acc = layers.setdefault(name, [0, 0.0, 0])
            for k in range(3):
                acc[k] += row[k]
    return layers, cpu


def ledger_consistent(router_stats: dict) -> Optional[str]:
    """The router's vector ledger must balance with nothing shed or lost."""
    v = router_stats["vectors"]
    if v["received"] != v["completed"] + v["shed"] + v["errors"] + v["inflight"]:
        return f"router ledger does not balance: {v}"
    if v["shed"] or v["errors"] or v["inflight"]:
        return f"router shed, lost or still holds vectors: {v}"
    return None
