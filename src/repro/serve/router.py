"""Consistent-hash router for the sharded detection fleet.

The single :class:`~repro.serve.server.DetectionServer` saturates one
event loop at roughly the JSON-lines framing rate; the fleet tier scales
past that by putting this router in front of a pool of worker processes,
each running the existing server + compiled tree.  Design:

* **Shard by source.**  Classify requests carry a ``source`` key (the
  monitored pid/core/stream); a consistent-hash ring maps every source
  onto exactly one worker, so the per-source window sequences the
  aggregation tier reasons about are never interleaved across workers
  (Röhl et al.'s event-validity point: a source's instruction-normalized
  vectors are only comparable within one counter stream).  Assignment is
  a pure function of the worker *pool membership* — restarting a worker
  keeps its name and therefore its shard; sources move only when the
  pool itself grows or shrinks.

* **Forward raw bytes.**  The router never re-encodes a classify
  request: it peeks ``op``/``source``/``id``/``n`` with cheap regex
  scans (full JSON parse only as a fallback) and forwards the original
  line to the worker, whose response line is relayed back verbatim.
  Floats are therefore parsed exactly once, by the worker — router-path
  verdicts are bit-identical to direct-server verdicts by construction.

* **One response per forwarded line.**  Workers answer every line in
  per-connection order, so a FIFO of in-flight entries per worker link
  is enough to match responses to clients — no id rewriting, no
  correlation headers.

* **Admit before forwarding.**  A token-bucket
  :class:`~repro.serve.admission.AdmissionController` charges each
  request its *vector* cost; rejected work gets an explicit
  ``overloaded`` response and lands in the shed ledger.  Worker
  backpressure (``overloaded`` from a full worker queue) and worker
  restarts (``unavailable``) are accounted the same way: the router's
  ``stats`` op proves ``received == completed + shed + errors +
  inflight`` at any instant — no silent drops.

* **Aggregate verdicts.**  Every relayed label is fed to a
  :class:`~repro.serve.aggregate.VerdictAggregator`; ``{"op": "fleet"}``
  and ``{"op": "verdicts", "source": ...}`` expose fleet-level
  majority/streak verdicts on the same TCP endpoint.
"""

from __future__ import annotations

import asyncio
import bisect
import contextlib
import functools
import hashlib
import json
import re
from collections import deque
from typing import Any, Deque, Dict, List, Optional, Tuple

from orjson import JSONDecodeError, loads

from repro.errors import ServeError
from repro.serve.admission import AdmissionController
from repro.serve.aggregate import VerdictAggregator
from repro.serve.loopthread import LoopThread
from repro.serve.server import STREAM_LIMIT, serve_lines
from repro.telemetry.core import TELEMETRY

__all__ = ["HashRing", "DetectionRouter", "RouterThread"]

#: Points each ring member owns.
VNODES = 64
#: Router-side backlog cap: in-flight lines per worker link before
#: ``overloaded`` is returned.
MAX_WORKER_INFLIGHT = 4096
#: Connection attempts to a (re)started worker, and the first back-off
#: between them (doubling, capped at 1 s).
CONNECT_RETRIES = 20
CONNECT_BACKOFF_S = 0.05


class HashRing:
    """Consistent hashing of string keys onto named members.

    Each member owns ``VNODES`` points on a 64-bit ring (blake2b of
    ``"name#i"`` — stable across processes and Python hash
    randomization); a key goes to the member owning the first point at
    or after the key's hash.  Removing a member moves only the keys it
    owned; re-adding it restores the exact previous assignment.
    """

    def __init__(self, members: Tuple[str, ...] = ()) -> None:
        self._points: List[int] = []
        self._owners: List[str] = []
        self._members: Dict[str, List[int]] = {}
        for member in members:
            self.add(member)

    @staticmethod
    def _hash(key: str) -> int:
        digest = hashlib.blake2b(key.encode("utf-8"), digest_size=8)
        return int.from_bytes(digest.digest(), "big")

    @property
    def members(self) -> List[str]:
        return sorted(self._members)

    def __contains__(self, member: str) -> bool:
        return member in self._members

    def add(self, member: str) -> None:
        if member in self._members:
            raise ServeError(f"ring member {member!r} already present")
        points = [self._hash(f"{member}#{i}") for i in range(VNODES)]
        self._members[member] = points
        for point in points:
            idx = bisect.bisect_left(self._points, point)
            self._points.insert(idx, point)
            self._owners.insert(idx, member)

    def remove(self, member: str) -> None:
        points = self._members.pop(member, None)
        if points is None:
            raise ServeError(f"unknown ring member {member!r}")
        for point in points:
            idx = bisect.bisect_left(self._points, point)
            # Duplicate points are astronomically unlikely but handled:
            # scan forward to this member's entry.
            while self._owners[idx] != member:
                idx += 1
            del self._points[idx]
            del self._owners[idx]

    def assign(self, key: str) -> str:
        """The member owning ``key`` (pure function of the membership)."""
        if not self._points:
            raise ServeError("hash ring has no members")
        idx = bisect.bisect_right(self._points, self._hash(key))
        if idx == len(self._points):
            idx = 0
        return self._owners[idx]


# Fast-path scanners: pull routing facts out of a request line without a
# full JSON parse.  Anything they cannot settle falls back to a full parse
# by the same decoder the worker uses; deep validation always happens at the
# worker, which parses the same raw bytes the client sent.
_OP_RE = re.compile(rb'"op"\s*:\s*"([a-z_]+)"')
_SOURCE_RE = re.compile(rb'"source"\s*:\s*"((?:[^"\\]|\\.){1,256})"')
_N_RE = re.compile(rb'"n"\s*:\s*(\d+)')
_ID_RE = re.compile(
    rb'"id"\s*:\s*("(?:[^"\\]|\\.)*"|-?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?'
    rb'|true|false|null)'
)


class _InFlight:
    """One line forwarded to a worker, awaiting its one response."""

    __slots__ = ("queue", "source", "n", "id_token", "future")

    def __init__(self, queue: Optional[asyncio.Queue], source: str, n: int,
                 id_token: Optional[bytes],
                 future: Optional["asyncio.Future"] = None) -> None:
        self.queue = queue
        self.source = source
        self.n = n
        self.id_token = id_token
        self.future = future


class _WorkerLink:
    """The router's persistent connection to one worker."""

    __slots__ = ("name", "host", "port", "reader", "writer", "inflight",
                 "up", "reader_task", "forwarded_lines", "forwarded_vectors",
                 "completed_vectors", "restarts")

    def __init__(self, name: str, host: str, port: int) -> None:
        self.name = name
        self.host = host
        self.port = port
        self.reader: Optional[asyncio.StreamReader] = None
        self.writer: Optional[asyncio.StreamWriter] = None
        self.inflight: Deque[_InFlight] = deque()
        self.up = False
        self.reader_task: Optional[asyncio.Task] = None
        self.forwarded_lines = 0
        self.forwarded_vectors = 0
        self.completed_vectors = 0
        self.restarts = 0

    def inflight_vectors(self) -> int:
        return sum(e.n for e in self.inflight)

    def stats(self) -> Dict[str, Any]:
        return {
            "host": self.host,
            "port": self.port,
            "up": self.up,
            "inflight_lines": len(self.inflight),
            "inflight_vectors": self.inflight_vectors(),
            "forwarded_lines": self.forwarded_lines,
            "forwarded_vectors": self.forwarded_vectors,
            "completed_vectors": self.completed_vectors,
            "restarts": self.restarts,
        }


def _error_line(id_token: Optional[bytes], error: str, detail: str) -> bytes:
    body = (b'"error": "' + error.encode() + b'", "detail": "'
            + detail.encode() + b'"}')
    if id_token is None:
        return b"{" + body + b"\n"
    return b'{"id": ' + id_token + b", " + body + b"\n"


class DetectionRouter:
    """TCP/JSON-lines front-end sharding classify traffic onto workers.

    Workers are registered with :meth:`add_worker` (usually by
    :class:`~repro.serve.fleet.DetectionFleet`); clients speak the same
    protocol as to a single :class:`DetectionServer`, plus a ``source``
    field for shard affinity and the control ops ``fleet`` /
    ``verdicts`` / ``route``.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        admission: Optional[AdmissionController] = None,
        aggregator: Optional[VerdictAggregator] = None,
    ) -> None:
        self.host = host
        self.port = port
        self.admission = admission or AdmissionController()
        self.aggregator = aggregator or VerdictAggregator()
        self.ring = HashRing()
        self._links: Dict[str, _WorkerLink] = {}
        self._server: Optional[asyncio.base_events.Server] = None
        self._writers: set = set()
        self._conn_seq = 0
        self._accepting = False
        # Ledger, all vector-denominated (one classify vector = 1).
        self.requests = 0            # classify lines received
        self.vectors_received = 0
        self.vectors_completed = 0
        self.vectors_errored = 0
        self.shed_unavailable = 0
        self.shed_backlog = 0
        self.shed_overloaded = 0     # worker-queue backpressure, relayed
        self.shed_by_source: Dict[str, int] = {}

    # ------------------------------------------------------------ lifecycle

    async def start(self) -> Tuple[str, int]:
        if self._server is not None:
            raise ServeError("router already started")
        self._server = await asyncio.start_server(
            functools.partial(serve_lines, self), self.host, self.port,
            limit=STREAM_LIMIT,
        )
        self._accepting = True
        sock = self._server.sockets[0]
        self.host, self.port = sock.getsockname()[:2]
        return self.host, self.port

    async def stop(self) -> None:
        if self._server is None:
            return
        self._accepting = False
        self._server.close()
        # Fail in-flight work first: a half-closed client's connection
        # stays open until its owed replies are written.
        for name in list(self._links):
            await self._down_link(self._links[name],
                                  detail="router shutting down")
        for writer in list(self._writers):
            writer.close()
        await self._server.wait_closed()
        self._server = None

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        assert self._server is not None
        await self._server.serve_forever()

    # ------------------------------------------------------------- workers

    async def add_worker(self, name: str, host: str, port: int) -> None:
        """Join ``name`` to the pool (ring membership + live connection)."""
        self.ring.add(name)
        try:
            await self.set_worker_address(name, host, port)
        except ServeError:
            self.ring.remove(name)
            raise

    async def set_worker_address(self, name: str, host: str,
                                 port: int) -> None:
        """(Re)connect ``name`` at a new address — ring membership (and
        therefore shard assignment) is untouched; used for hot restarts."""
        if name not in self.ring:
            raise ServeError(f"unknown worker {name!r}; add_worker first")
        old = self._links.get(name)
        if old is not None:
            old.restarts += 1
            await self._down_link(old, detail="worker restarting")
        link = _WorkerLink(name, host, port)
        if old is not None:
            link.restarts = old.restarts
            link.forwarded_lines = old.forwarded_lines
            link.forwarded_vectors = old.forwarded_vectors
            link.completed_vectors = old.completed_vectors
        self._links[name] = link
        await self._connect_link(link)

    async def mark_worker_down(self, name: str) -> None:
        """Proactively fail a worker's in-flight work (before killing it)."""
        link = self._links.get(name)
        if link is not None:
            await self._down_link(link, detail="worker going down")

    async def _connect_link(self, link: _WorkerLink) -> None:
        delay = CONNECT_BACKOFF_S
        last: Optional[Exception] = None
        for _ in range(CONNECT_RETRIES):
            try:
                link.reader, link.writer = await asyncio.open_connection(
                    link.host, link.port, limit=STREAM_LIMIT
                )
                break
            except OSError as exc:
                last = exc
                await asyncio.sleep(delay)
                delay = min(delay * 2, 1.0)
        else:
            raise ServeError(
                f"cannot connect to worker {link.name} at "
                f"{link.host}:{link.port}: {last}"
            )
        link.up = True
        link.reader_task = asyncio.create_task(self._worker_reader(link))

    async def _down_link(self, link: _WorkerLink, detail: str) -> None:
        link.up = False
        if link.reader_task is not None:
            link.reader_task.cancel()
            with contextlib.suppress(asyncio.CancelledError, Exception):
                await link.reader_task
            link.reader_task = None
        if link.writer is not None:
            with contextlib.suppress(Exception):
                link.writer.close()
            link.writer = None
        link.reader = None
        self._fail_inflight(link, detail)

    def _fail_inflight(self, link: _WorkerLink, detail: str) -> None:
        while link.inflight:
            entry = link.inflight.popleft()
            self._shed(entry.source, entry.n, "unavailable")
            if entry.future is not None:
                if not entry.future.done():
                    entry.future.set_result(
                        {"error": "unavailable", "detail": detail}
                    )
            elif entry.queue is not None:
                entry.queue.put_nowait(
                    _error_line(entry.id_token, "unavailable", detail)
                )

    # ------------------------------------------------------ worker responses

    async def _worker_reader(self, link: _WorkerLink) -> None:
        assert link.reader is not None
        try:
            while True:
                line = await link.reader.readline()
                if not line:
                    break
                if not link.inflight:
                    continue  # unsolicited line; nothing to match
                entry = link.inflight.popleft()
                self._account_response(link, entry, line)
                if entry.future is not None:
                    if not entry.future.done():
                        try:
                            entry.future.set_result(loads(line))
                        except JSONDecodeError:
                            entry.future.set_result(
                                {"error": "bad_worker_response"}
                            )
                elif entry.queue is not None:
                    entry.queue.put_nowait(line)
        except (ConnectionResetError, asyncio.CancelledError):
            pass
        finally:
            if link.up:  # worker vanished underneath us
                link.up = False
                self._fail_inflight(link, "worker connection lost")

    def _account_response(self, link: _WorkerLink, entry: _InFlight,
                          line: bytes) -> None:
        if entry.future is not None:
            return  # control traffic: not part of the classify ledger
        try:
            resp = loads(line)
        except JSONDecodeError:
            self.vectors_errored += entry.n
            return
        labels = resp.get("labels")
        if labels is None and "label" in resp:
            labels = [resp["label"]]
        if labels is not None:
            self.vectors_completed += len(labels)
            link.completed_vectors += len(labels)
            self.aggregator.observe(entry.source, labels, worker=link.name)
            if len(labels) != entry.n:  # worker rejected part of the claim
                self.vectors_errored += entry.n - len(labels)
        elif resp.get("error") == "overloaded":
            self._shed(entry.source, entry.n, "overloaded")
        else:
            self.vectors_errored += entry.n

    def _shed(self, source: str, n: int, reason: str) -> None:
        if reason == "unavailable":
            self.shed_unavailable += n
        elif reason == "backlog":
            self.shed_backlog += n
        else:
            self.shed_overloaded += n
        self.shed_by_source[source] = self.shed_by_source.get(source, 0) + n
        TELEMETRY.count(f"router.shed.{reason}", n)

    # ------------------------------------------------------------- clients

    def _connect(self, replies: asyncio.Queue):
        """The per-line handler of ``serve_lines``: :meth:`_dispatch` with
        this connection's default ``source``."""
        self._conn_seq += 1
        default_source = f"conn-{self._conn_seq}"
        return lambda line: self._dispatch(line, default_source, replies)

    @staticmethod
    async def _render(item) -> bytes:
        """Worker reply lines pass through; the router's own are dicts."""
        if type(item) is dict:
            return json.dumps(item).encode() + b"\n"
        return item

    # ------------------------------------------------------------ dispatch

    async def _dispatch(self, line: bytes, default_source: str,
                        responses: asyncio.Queue) -> None:
        op_match = _OP_RE.search(line)
        op = op_match.group(1).decode() if op_match else None
        if op == "classify" or (op is None and b'"op"' not in line):
            parsed = self._peek_classify(line, default_source)
            if parsed is not None:
                source, n, id_token = parsed
                await self._forward_classify(line, source, n, id_token,
                                             responses)
                return
        # Control ops and anything the fast path could not settle.
        try:
            doc = loads(line)
        except JSONDecodeError as exc:
            await responses.put({"error": "bad_request",
                                 "detail": f"invalid JSON: {exc}"})
            return
        if not isinstance(doc, dict):
            await responses.put({"error": "bad_request",
                                 "detail": "expected an object"})
            return
        op = doc.get("op", "classify")
        rid = doc.get("id")
        if op == "classify":
            n = len(doc["batch"]) if isinstance(doc.get("batch"), list) else 1
            source = str(doc.get("source", default_source))
            id_match = _ID_RE.search(line)
            await self._forward_classify(
                line, source, max(n, 1),
                id_match.group(1) if id_match else None, responses
            )
        elif op == "ping":
            await responses.put({"id": rid, "ok": True,
                                 "server": "repro-serve-router"})
        elif op == "stats":
            await responses.put({"id": rid, "stats": self.stats()})
        elif op == "fleet":
            await responses.put({"id": rid,
                                 "fleet": self.aggregator.fleet_summary()})
        elif op == "verdicts":
            source = doc.get("source")
            try:
                if source is None:
                    payload: Any = self.aggregator.verdict_streams()
                else:
                    payload = self.aggregator.source_summary(str(source))
            except ServeError as exc:
                await responses.put({"id": rid, "error": "bad_request",
                                     "detail": str(exc)})
                return
            await responses.put({"id": rid, "verdicts": payload})
        elif op == "route":
            source = str(doc.get("source", default_source))
            try:
                worker = self.ring.assign(source)
            except ServeError as exc:
                await responses.put({"id": rid, "error": "unavailable",
                                     "detail": str(exc)})
                return
            link = self._links.get(worker)
            await responses.put({
                "id": rid, "source": source, "worker": worker,
                "up": bool(link is not None and link.up),
            })
        elif op == "reload":
            await self._broadcast_reload(line, rid, responses)
        else:
            await responses.put({"id": rid, "error": "bad_request",
                                 "detail": f"unknown op {op!r}"})

    def _peek_classify(
        self, line: bytes, default_source: str
    ) -> Optional[Tuple[str, int, Optional[bytes]]]:
        """Routing facts from regex scans alone, or None to force a parse."""
        if b'"batch"' in line:
            n_match = _N_RE.search(line)
            if n_match is None:
                return None
            n = int(n_match.group(1))
            if n < 1:
                return None  # let the worker reject it coherently
        elif b'"features"' in line or b'"counts"' in line:
            n = 1
        else:
            return None
        source_match = _SOURCE_RE.search(line)
        if source_match is None:
            source = default_source if b'"source"' not in line else None
            if source is None:
                return None
        else:
            try:
                source = loads(b'"' + source_match.group(1) + b'"')
            except JSONDecodeError:
                return None
        id_match = _ID_RE.search(line)
        return source, n, id_match.group(1) if id_match else None

    async def _forward_classify(self, line: bytes, source: str, n: int,
                                id_token: Optional[bytes],
                                responses: asyncio.Queue) -> None:
        self.requests += 1
        self.vectors_received += n
        TELEMETRY.count("router.requests")
        TELEMETRY.count("router.vectors", n)
        TELEMETRY.observe("router.batch_vectors", n)
        if not self._accepting:
            await responses.put(_error_line(id_token, "shutdown",
                                            "router stopping"))
            self._shed(source, n, "unavailable")
            return
        if not self.admission.admit(source, n):
            await responses.put(_error_line(
                id_token, "overloaded", "admission rate limit; back off"
            ))
            TELEMETRY.count("router.shed.admission", n)
            return
        try:
            worker = self.ring.assign(source)
        except ServeError:
            await responses.put(_error_line(id_token, "unavailable",
                                            "no workers in pool"))
            self._shed(source, n, "unavailable")
            return
        link = self._links.get(worker)
        if link is None or not link.up or link.writer is None:
            await responses.put(_error_line(
                id_token, "unavailable", "shard restarting; retry"
            ))
            self._shed(source, n, "unavailable")
            return
        if len(link.inflight) >= MAX_WORKER_INFLIGHT:
            await responses.put(_error_line(
                id_token, "overloaded", "worker backlog full; back off"
            ))
            self._shed(source, n, "backlog")
            return
        link.inflight.append(_InFlight(responses, source, n, id_token))
        link.forwarded_lines += 1
        link.forwarded_vectors += n
        await self._send(link, line)
        TELEMETRY.gauge(f"router.worker.{worker}.inflight",
                        len(link.inflight))

    async def _send(self, link: _WorkerLink, line: bytes) -> None:
        """Write one line to a worker; a dead link fails its inflight."""
        assert link.writer is not None
        try:
            link.writer.write(line)
            await link.writer.drain()
        except OSError:  # reset, broken pipe
            link.up = False
            self._fail_inflight(link, "worker connection lost")

    async def _broadcast_reload(self, line: bytes, rid,
                                responses: asyncio.Queue) -> None:
        loop = asyncio.get_running_loop()
        futures: Dict[str, asyncio.Future] = {}
        for name, link in sorted(self._links.items()):
            if not link.up or link.writer is None:
                continue
            fut: asyncio.Future = loop.create_future()
            link.inflight.append(_InFlight(None, "", 0, None, future=fut))
            futures[name] = fut
            await self._send(link, line)
        if not futures:
            await responses.put({"id": rid, "error": "unavailable",
                                 "detail": "no live workers"})
            return
        results: Dict[str, Any] = {}
        for name, fut in futures.items():
            try:
                results[name] = await asyncio.wait_for(fut, timeout=30.0)
            except asyncio.TimeoutError:
                results[name] = {"error": "timeout"}
        ok = all(r.get("reloaded") for r in results.values())
        await responses.put({"id": rid, "reloaded": ok, "workers": results})

    # --------------------------------------------------------------- stats

    def stats(self) -> Dict[str, Any]:
        admission = self.admission.snapshot()
        shed_admission = admission["shed"]
        inflight = sum(link.inflight_vectors()
                       for link in self._links.values())
        shed_by_source: Dict[str, int] = dict(admission["shed_by_source"])
        for source, n in self.shed_by_source.items():
            shed_by_source[source] = shed_by_source.get(source, 0) + n
        return {
            "router": True,
            "accepting": self._accepting,
            "requests": self.requests,
            "vectors": {
                "received": self.vectors_received,
                "completed": self.vectors_completed,
                "shed": (shed_admission + self.shed_unavailable
                         + self.shed_backlog + self.shed_overloaded),
                "errors": self.vectors_errored,
                "inflight": inflight,
            },
            "shed": {
                "admission": shed_admission,
                "unavailable": self.shed_unavailable,
                "backlog": self.shed_backlog,
                "overloaded": self.shed_overloaded,
            },
            "shed_by_source": shed_by_source,
            "workers": {name: link.stats()
                        for name, link in sorted(self._links.items())},
            "ring": {"members": self.ring.members, "vnodes": VNODES},
            "admission": admission,
            "config": {"max_worker_inflight": MAX_WORKER_INFLIGHT},
        }


class RouterThread(LoopThread):
    """A :class:`DetectionRouter` on a private event loop in a thread.

    The synchronous twin of :class:`~repro.serve.server.ServerThread`,
    used by the CLI, the load generator and tests to embed a router in
    blocking code.  Worker management calls are marshalled onto the
    router's loop::

        rt = RouterThread()
        host, port = rt.start()
        rt.call(rt.router.add_worker, "w0", whost, wport)
    """

    label = "router"
    thread_name = "repro-serve-router"

    def __init__(self, **kwargs) -> None:
        self.router = DetectionRouter(**kwargs)
        super().__init__(self.router)
