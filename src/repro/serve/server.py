"""Asyncio JSON-lines TCP server for online false-sharing detection.

One JSON object per line in, one per line out, responses in request order
per connection.  Requests:

* ``{"op": "classify", "id": 7, "features": [..15 floats..]}`` — classify
  a pre-normalized feature vector;
* ``{"op": "classify", "id": 7, "counts": {event: raw_count, ...}}`` —
  classify raw counts (normalized server-side; must include the
  ``Instructions_Retired`` normalizer);
* ``{"op": "classify", "id": 7, "source": "pid-4", "n": 64,
  "batch": [[..15 floats..], ...]}`` — classify a whole batch of
  vectors in one line (the fleet tier's framing: per-vector JSON and
  socket overhead amortize across the batch; ``n`` must match the batch
  length and ``source`` tags the stream for routing/aggregation, both
  optional on a direct connection);
* ``{"op": "ping"}`` / ``{"op": "stats"}`` — liveness and counters;
* ``{"op": "reload", "path": "model.json"}`` — hot-swap the tree from a
  :mod:`repro.ml.persistence` file without dropping connections.

Replies: ``{"id": 7, "label": "bad-fs"}`` on success (batch requests get
``{"id": 7, "labels": [...], "n": ...}`` plus the echoed ``source``);
``{"id": 7, "error": "overloaded"}`` when the bounded request queue is
full (explicit shed — the server never buffers without bound);
``{"id": 7, "error": "bad_request", "detail": ...}`` for malformed input
(no ``id`` when the line is not JSON at all).  Lines are decoded by orjson,
which reads every float exactly and refuses ``NaN``, ``Infinity`` and
overflowing literals; feature rows must then be numbers of the right shape,
all finite.

**Micro-batching.**  Classification requests land in a bounded queue; a
single batcher task drains up to ``max_batch`` of them (waiting at most
``max_wait_s`` for stragglers) and classifies the whole batch with one
:meth:`~repro.serve.inference.CompiledTree.predict_batch` call.  Under
load, batches grow toward ``max_batch`` and per-request cost approaches
the vectorized floor; when idle, a lone request pays at most
``max_wait_s`` of extra latency.

**Shutdown.**  :meth:`DetectionServer.stop` stops accepting, lets the
batcher drain everything already queued (every accepted request gets its
response), then closes connections — in-flight work is flushed, not
dropped.

The hot path is instrumented with :mod:`repro.telemetry` counters/gauges
(``serve.requests``, ``serve.shed``, ``serve.batches``,
``serve.queue_depth``, ``serve.batch_size``) and a ``serve.batch`` span.
"""

from __future__ import annotations

import asyncio
import contextlib
import functools
import json
import math
from typing import Any, Dict, List, Optional, Tuple

import numpy as np
from orjson import JSONDecodeError, loads

from repro.errors import PMUError, ReproError, ServeError
from repro.pmu.counters import EventVector
from repro.serve.inference import CompiledTree, as_compiled
from repro.serve.loopthread import LoopThread
from repro.telemetry.core import TELEMETRY

__all__ = ["DetectionServer", "ServerThread", "STREAM_LIMIT"]

#: Per-line buffer limit for every serve-tier stream (server accept,
#: router accept, router->worker links).  A 1024-vector batch line of
#: full-precision floats is ~0.4 MiB; 16 MiB leaves an order of
#: magnitude of headroom without letting one client buffer unboundedly.
STREAM_LIMIT = 16 * 1024 * 1024

#: The reply to a request line longer than :data:`STREAM_LIMIT`.  It has
#: no ``id`` (the line was never parsed), and the connection then closes:
#: the rest of its input has lost its framing.
OVERSIZED_LINE = {"error": "bad_request",
                  "detail": f"request line longer than {STREAM_LIMIT} bytes"}


async def serve_lines(owner, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
    """One JSON-lines client connection, for the server and the router.

    ``owner._connect(replies)`` gives the connection's line handler, which
    puts one reply per line on ``replies``, now or later; ``await
    owner._render(reply)`` gives its bytes; ``owner._writers`` is what
    ``stop()`` closes.  The contract is stated in docs/SERVING.md: blank
    lines are skipped, a line cut off by EOF gets its newline, and once
    every owed reply is written the connection half-closes, drains its
    input and closes.  A reset, a cancel or a failing handler closes it
    at once.
    """
    replies: asyncio.Queue = asyncio.Queue()
    on_line = owner._connect(replies)

    async def write_replies() -> None:
        written = 0
        due: Optional[int] = None
        while due is None or written < due:
            item = await replies.get()
            if type(item) is int:  # reading ended: the replies owed
                due = item
                continue
            writer.write(await owner._render(item))
            await writer.drain()
            written += 1
        # Half-close, then drop input until the peer's EOF: closing with
        # unread input sends a reset, which can destroy unread replies.
        with contextlib.suppress(Exception):
            writer.write_eof()
            while await reader.read(1 << 16):
                pass

    replier = asyncio.create_task(write_replies())
    # Closes however the replier ends, even if cancelled before it started.
    replier.add_done_callback(lambda _: writer.close())
    owner._writers.add(writer)
    owed = 0
    try:
        while True:
            try:
                line = await reader.readline()
            except ValueError:  # longer than STREAM_LIMIT
                replies.put_nowait(OVERSIZED_LINE)
                owed += 1
                break
            if not line:
                break
            if line.isspace():
                continue
            if not line.endswith(b"\n"):
                line += b"\n"
            owed += 1
            await on_line(line)
    except (ConnectionResetError, asyncio.CancelledError):
        replier.cancel()
    except BaseException:  # a failing handler: close, and let it be logged
        replier.cancel()
        raise
    else:
        replies.put_nowait(owed)
    finally:
        with contextlib.suppress(asyncio.CancelledError, Exception):
            await replier
        owner._writers.discard(writer)


#: Sentinel queued by ``stop`` so the batcher exits after draining
#: everything enqueued before shutdown began.
_STOP = object()


class _Pending:
    """One accepted classification request awaiting its batch.

    ``features`` is one vector (1-d) for a single request or a matrix
    (2-d) for a batched one; the future resolves to a ``str`` or a
    ``List[str]`` respectively.
    """

    __slots__ = ("features", "future")

    def __init__(self, features: np.ndarray,
                 future: "asyncio.Future") -> None:
        self.features = features
        self.future = future

    @property
    def rows(self) -> int:
        return self.features.shape[0] if self.features.ndim == 2 else 1


class DetectionServer:
    """Online detector: compiled tree + bounded queue + micro-batcher.

    ``model`` is anything :func:`repro.serve.inference.as_compiled`
    accepts: a :class:`CompiledTree`, a fitted ``C45Classifier``, a bare
    tree, or a path to a persisted model JSON.
    """

    def __init__(
        self,
        model,
        host: str = "127.0.0.1",
        port: int = 0,
        max_batch: int = 256,
        max_wait_s: float = 0.002,
        backlog: int = 4096,
        features: Optional[List] = None,
    ) -> None:
        if max_batch < 1:
            raise ServeError("max_batch must be >= 1")
        if max_wait_s < 0:
            raise ServeError("max_wait_s must be >= 0")
        if backlog < 1:
            raise ServeError("backlog must be >= 1")
        self._compiled: CompiledTree = as_compiled(model)
        self.host = host
        self.port = port
        self.max_batch = max_batch
        self.max_wait_s = max_wait_s
        self.backlog = backlog
        if features is None:
            from repro.core.training import FEATURES

            features = list(FEATURES)
        self.features = features
        # Lifecycle / hot-path state (created on start()).
        self._queue: Optional[asyncio.Queue] = None
        self._server: Optional[asyncio.base_events.Server] = None
        self._batch_task: Optional[asyncio.Task] = None
        self._resume: Optional[asyncio.Event] = None
        self._writers: set = set()
        self._accepting = False
        # Counters (mirrored into telemetry when enabled).  ``requests``
        # and ``shed`` count protocol lines; ``classified`` and
        # ``vectors_shed`` count vectors (a batch line carries many).
        self.requests = 0
        self.shed = 0
        self.vectors_shed = 0
        self.batches = 0
        self.classified = 0
        self.reloads = 0
        self.max_seen_batch = 0

    # ------------------------------------------------------------ lifecycle

    async def start(self) -> Tuple[str, int]:
        """Bind and start serving; returns the bound (host, port)."""
        if self._server is not None:
            raise ServeError("server already started")
        self._queue = asyncio.Queue(maxsize=self.backlog)
        self._resume = asyncio.Event()
        self._resume.set()
        # Batch-framed lines (hundreds of float vectors) far exceed the
        # asyncio default 64 KiB line limit.
        self._server = await asyncio.start_server(
            functools.partial(serve_lines, self), self.host, self.port,
            limit=STREAM_LIMIT,
        )
        # Only after a successful bind: a failed start must not leave an
        # orphaned batcher task behind on the loop.
        self._batch_task = asyncio.create_task(self._batch_loop())
        self._accepting = True
        sock = self._server.sockets[0]
        self.host, self.port = sock.getsockname()[:2]
        return self.host, self.port

    async def stop(self, drain: bool = True) -> None:
        """Graceful shutdown: stop accepting, drain, then close.

        With ``drain=True`` (default) every request accepted before the
        call gets a real response; ``drain=False`` fails queued work with
        a ``shutdown`` error instead.
        """
        if self._server is None:
            return
        self._accepting = False
        self._server.close()
        assert self._queue is not None and self._batch_task is not None
        if drain:
            self._resume.set()  # a paused batcher must still drain
            await self._queue.put(_STOP)
            await self._batch_task
        else:
            self._batch_task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._batch_task
            while not self._queue.empty():
                item = self._queue.get_nowait()
                if item is not _STOP and not item.future.done():
                    item.future.set_exception(ServeError("server shut down"))
        for writer in list(self._writers):
            writer.close()
        # Only after the writers close: from Python 3.12 on, wait_closed
        # also waits for every open connection.
        await self._server.wait_closed()
        self._server = None
        self._batch_task = None

    async def serve_forever(self) -> None:
        """Run until cancelled (the CLI's foreground mode)."""
        if self._server is None:
            await self.start()
        assert self._server is not None
        await self._server.serve_forever()

    # -------------------------------------------------- test / ops controls

    def pause_batching(self) -> None:
        """Hold the batcher (tests: deterministically fill the queue)."""
        if self._resume is not None:
            self._resume.clear()

    def resume_batching(self) -> None:
        if self._resume is not None:
            self._resume.set()

    def reload_model(self, model) -> CompiledTree:
        """Atomically swap the compiled tree (in-flight batches finish on
        the old one)."""
        compiled = as_compiled(model)
        self._compiled = compiled
        self.reloads += 1
        TELEMETRY.count("serve.reloads")
        return compiled

    def stats(self) -> Dict[str, Any]:
        return {
            "requests": self.requests,
            "classified": self.classified,
            "shed": self.shed,
            "vectors_shed": self.vectors_shed,
            "batches": self.batches,
            "max_batch_seen": self.max_seen_batch,
            "reloads": self.reloads,
            "queue_depth": self._queue.qsize() if self._queue else 0,
            "accepting": self._accepting,
            "model": {
                "nodes": self._compiled.n_nodes,
                "leaves": self._compiled.n_leaves,
                "classes": list(self._compiled.classes),
            },
            "config": {
                "max_batch": self.max_batch,
                "max_wait_ms": self.max_wait_s * 1e3,
                "backlog": self.backlog,
            },
        }

    # ------------------------------------------------------------ admission

    def submit(self, features: np.ndarray) -> Optional["asyncio.Future"]:
        """Queue one vector (1-d) or one batch of vectors (2-d).

        Returns the future resolving to the label (or list of labels),
        or ``None`` when the bounded queue is full — the caller must
        translate that into an explicit ``overloaded`` response
        (shedding beats unbounded buffering: the client learns *now*
        that it must back off).
        """
        if self._queue is None:
            raise ServeError("server is not started")
        fut: asyncio.Future = asyncio.get_running_loop().create_future()
        pending = _Pending(features, fut)
        try:
            self._queue.put_nowait(pending)
        except asyncio.QueueFull:
            self.shed += 1
            self.vectors_shed += pending.rows
            TELEMETRY.count("serve.shed")
            return None
        self.requests += 1
        TELEMETRY.count("serve.requests")
        return fut

    # ------------------------------------------------------------- batching

    async def _batch_loop(self) -> None:
        assert self._queue is not None and self._resume is not None
        loop = asyncio.get_running_loop()
        while True:
            first = await self._queue.get()
            if first is _STOP:
                return
            # Paused (tests/ops): hold this item until resumed; everything
            # behind it stays queued, so a full queue sheds deterministically.
            await self._resume.wait()
            batch: List[_Pending] = [first]
            stopping = False
            deadline = loop.time() + self.max_wait_s
            while len(batch) < self.max_batch:
                remaining = deadline - loop.time()
                if remaining <= 0:
                    # Under sustained load the queue refills while a batch
                    # is classified; take whatever is ready without waiting.
                    while (len(batch) < self.max_batch
                           and not self._queue.empty()):
                        item = self._queue.get_nowait()
                        if item is _STOP:
                            stopping = True
                            break
                        batch.append(item)
                    break
                try:
                    item = await asyncio.wait_for(self._queue.get(),
                                                  remaining)
                except asyncio.TimeoutError:
                    break
                if item is _STOP:
                    stopping = True
                    break
                batch.append(item)
            self._classify_batch(batch)
            if stopping:
                await self._drain_rest()
                return

    async def _drain_rest(self) -> None:
        """Classify everything left after _STOP (enqueued concurrently)."""
        assert self._queue is not None
        batch: List[_Pending] = []
        while not self._queue.empty():
            item = self._queue.get_nowait()
            if item is _STOP:
                continue
            batch.append(item)
            if len(batch) >= self.max_batch:
                self._classify_batch(batch)
                batch = []
        if batch:
            self._classify_batch(batch)

    def _classify_batch(self, batch: List[_Pending]) -> None:
        if not batch:
            return
        compiled = self._compiled
        rows = sum(p.rows for p in batch)
        if len(batch) == 1:
            X = np.atleast_2d(batch[0].features)
        else:
            X = np.vstack([np.atleast_2d(p.features) for p in batch])
        with TELEMETRY.span("serve.batch", size=rows):
            labels = compiled.predict_batch(X)
        offset = 0
        for pending in batch:
            k = pending.rows
            if not pending.future.done():
                if pending.features.ndim == 2:
                    pending.future.set_result(
                        [str(v) for v in labels[offset:offset + k]]
                    )
                else:
                    pending.future.set_result(str(labels[offset]))
            offset += k
        self.batches += 1
        self.classified += rows
        self.max_seen_batch = max(self.max_seen_batch, rows)
        TELEMETRY.count("serve.batches")
        TELEMETRY.count("serve.classified", rows)
        TELEMETRY.observe("serve.batch_size", rows)
        TELEMETRY.gauge("serve.batch_size", rows)
        TELEMETRY.gauge("serve.queue_depth",
                        self._queue.qsize() if self._queue else 0)

    # ----------------------------------------------------------- connections

    def _connect(self, replies: asyncio.Queue):
        """Line handler; :meth:`_render` awaits its futures in FIFO order."""
        return lambda line: replies.put(self._dispatch(line))

    async def _render(self, item) -> bytes:
        if type(item) is tuple:  # (request id, future, source)
            rid, fut, source = item
            try:
                result = await fut
                if isinstance(result, list):
                    item = {"id": rid, "labels": result, "n": len(result)}
                    if source is not None:
                        item["source"] = source
                else:
                    item = {"id": rid, "label": result}
            except ServeError as exc:
                item = {"id": rid, "error": "shutdown", "detail": str(exc)}
        return json.dumps(item).encode() + b"\n"

    # -------------------------------------------------------------- protocol

    def _dispatch(self, line: bytes):
        """Parse one request line; returns a payload dict or (id, future)."""
        try:
            req = loads(line)
        except JSONDecodeError as exc:
            return {"error": "bad_request", "detail": f"invalid JSON: {exc}"}
        if not isinstance(req, dict):
            return {"error": "bad_request", "detail": "expected an object"}
        op = req.get("op", "classify")
        rid = req.get("id")
        if op == "ping":
            return {"id": rid, "ok": True, "server": "repro-serve"}
        if op == "stats":
            return {"id": rid, "stats": self.stats()}
        if op == "reload":
            return self._handle_reload(req, rid)
        if op != "classify":
            return {"id": rid, "error": "bad_request",
                    "detail": f"unknown op {op!r}"}
        if not self._accepting:
            return {"id": rid, "error": "shutdown"}
        try:
            features = self._extract_features(req)
        except (ServeError, PMUError) as exc:
            return {"id": rid, "error": "bad_request", "detail": str(exc)}
        fut = self.submit(features)
        if fut is None:
            return {"id": rid, "error": "overloaded",
                    "detail": "request queue full; back off and retry"}
        source = req.get("source")
        return (rid, fut, str(source) if source is not None else None)

    def _handle_reload(self, req: Dict, rid) -> Dict[str, Any]:
        path = req.get("path")
        if not path:
            return {"id": rid, "error": "bad_request",
                    "detail": "reload requires a 'path'"}
        try:
            compiled = self.reload_model(path)
        except (ReproError, OSError, ValueError) as exc:
            return {"id": rid, "error": "reload_failed", "detail": str(exc)}
        return {"id": rid, "reloaded": True, "nodes": compiled.n_nodes,
                "classes": list(compiled.classes)}

    def _extract_features(self, req: Dict) -> np.ndarray:
        if "batch" in req:
            feats = self._rows(
                req["batch"], 2,
                f"'batch' must be a non-empty list of "
                f"{len(self.features)}-number vectors",
            )
            n = req.get("n")
            if n is not None and (type(n) is not int or n != len(feats)):
                raise ServeError(
                    f"'n' ({n!r}) must be an integer equal to the batch "
                    f"length ({len(feats)})"
                )
            return feats
        if "features" in req:
            return self._rows(
                req["features"], 1,
                f"'features' must be a flat list of {len(self.features)} "
                "numbers",
            )
        if "counts" in req:
            counts = req["counts"]
            if not isinstance(counts, dict):
                raise ServeError("'counts' must be an object of raw counts")
            if not all(type(v) in (int, float) and math.isfinite(v)
                       for v in counts.values()):
                raise ServeError("'counts' values must be finite numbers")
            vec = EventVector({k: float(v) for k, v in counts.items()})
            return self._rows(vec.features(self.features), 1,
                              "normalized 'counts'")
        raise ServeError("classify requires 'features' or 'counts'")

    def _rows(self, value: Any, ndim: int, shape_error: str) -> np.ndarray:
        """``value`` as float64 feature rows, or ServeError.

        Strict where ``np.asarray(value, dtype=float)`` is lenient: only
        numbers (no strings or nulls), exactly ``ndim`` levels of nesting
        ending in full feature vectors, every value finite.  NaN would
        silently compare False at every tree node.
        """
        try:
            arr = np.asarray(value)
        except ValueError:  # ragged nesting
            raise ServeError(shape_error) from None
        if (arr.ndim != ndim or arr.dtype.kind not in "iuf"
                or arr.shape[-1] != len(self.features)):
            raise ServeError(shape_error)
        arr = arr.astype(np.float64, copy=False)
        if not np.isfinite(arr).all():
            raise ServeError("feature values must be finite numbers")
        return arr


class ServerThread(LoopThread):
    """A :class:`DetectionServer` on a private event loop in a thread.

    Synchronous code (the CLI, the load generator, tests, experiments)
    uses this to run the asyncio server in the background::

        with ServerThread(model) as (host, port):
            client = ServeClient(host, port)
            ...
    """

    def __init__(self, model, **kwargs) -> None:
        self.server = DetectionServer(model, **kwargs)
        super().__init__(self.server)

    def pause_batching(self) -> None:
        """Thread-safe :meth:`DetectionServer.pause_batching`."""
        self._call_soon(self.server.pause_batching)

    def resume_batching(self) -> None:
        """Thread-safe :meth:`DetectionServer.resume_batching`."""
        self._call_soon(self.server.resume_batching)

    def stop(self, drain: bool = True) -> None:
        self._shutdown(drain=drain)
