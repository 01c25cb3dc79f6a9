"""Synchronous client for the ``repro-serve`` JSON-lines protocol.

Request/response only — :meth:`ServeClient.classify`,
:meth:`~ServeClient.classify_batch`, :meth:`~ServeClient.ping`,
:meth:`~ServeClient.stats`, :meth:`~ServeClient.reload`: one line out,
one line back.  Pipelined load (many lines in flight, possibly over
several connections) is :func:`repro.serve.loadgen.run_loadgen`.

Transport failures never escape as raw socket exceptions: connect
refusals, read timeouts, resets and mid-stream disconnects all surface as
:class:`repro.errors.ServeError`.  With ``retries > 0`` the client
transparently reconnects (with exponential backoff) and re-sends the
in-flight request — classification is idempotent, so re-sending a line
the server may or may not have processed is safe.
"""

from __future__ import annotations

import json
import socket
import time
from typing import Any, Dict, Iterable, List, Optional

import numpy as np
from orjson import JSONDecodeError, loads

from repro.errors import ServeError

__all__ = ["ServeClient"]


class ServeClient:
    """A blocking TCP client for one detection server."""

    def __init__(self, host: str, port: int, timeout: float = 30.0,
                 retries: int = 0, backoff_s: float = 0.05) -> None:
        self.host = host
        self.port = port
        self.timeout = float(timeout)
        self.retries = int(retries)
        self.backoff_s = float(backoff_s)
        self._connect()

    # ------------------------------------------------------------ transport

    def _connect(self) -> None:
        """(Re)establish the connection, honoring the retry budget."""
        last: Optional[BaseException] = None
        for attempt in range(self.retries + 1):
            if attempt:
                time.sleep(self.backoff_s * (2 ** (attempt - 1)))
            try:
                sock = socket.create_connection(
                    (self.host, self.port), timeout=self.timeout
                )
            except OSError as exc:
                last = exc
                continue
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._sock = sock
            self._rfile = sock.makefile("rb")
            return
        raise ServeError(
            f"cannot connect to {self.host}:{self.port} after "
            f"{self.retries + 1} attempt(s): {last}"
        ) from last

    def reconnect(self) -> None:
        """Drop the current connection and dial again (with backoff)."""
        self.close()
        self._connect()

    def _send(self, obj: Dict[str, Any]) -> None:
        try:
            self._sock.sendall(json.dumps(obj).encode() + b"\n")
        except OSError as exc:
            raise ServeError(f"send failed: {exc}") from exc

    def _recv(self) -> Dict[str, Any]:
        try:
            line = self._rfile.readline()
        except socket.timeout as exc:
            raise ServeError(
                f"read timed out after {self.timeout}s"
            ) from exc
        except OSError as exc:
            raise ServeError(f"connection lost: {exc}") from exc
        if not line:
            raise ServeError("server closed the connection")
        try:
            return loads(line)
        except JSONDecodeError as exc:
            raise ServeError(f"malformed response: {exc}") from exc

    def request(self, obj: Dict[str, Any]) -> Dict[str, Any]:
        """One round trip: send a request object, return the response.

        With ``retries > 0`` a reset or closed connection triggers a
        reconnect (exponential backoff) and a re-send — once per
        remaining attempt.  Timeouts are not retried: the server is up
        but slow, and re-sending would only add load.
        """
        for attempt in range(self.retries + 1):
            if attempt:
                # _connect spends its own retry budget; a failure here
                # means the server stayed down and should propagate.
                self.reconnect()
            try:
                self._send(obj)
                return self._recv()
            except ServeError as exc:
                if attempt >= self.retries or "timed out" in str(exc):
                    raise
        raise ServeError(  # pragma: no cover - loop always raises first
            f"request failed after {self.retries + 1} attempts"
        )

    # ----------------------------------------------------------- operations

    def classify(self, features: Iterable[float],
                 rid: Any = 0) -> str:
        """Classify one pre-normalized feature vector; returns the label.

        Raises :class:`ServeError` on shed (``overloaded``) or protocol
        errors — single-shot callers should treat shed as failure and back
        off; :func:`repro.serve.loadgen.run_loadgen` counts sheds.
        """
        resp = self.request({
            "op": "classify", "id": rid,
            "features": [float(v) for v in features],
        })
        return self._label_of(resp)

    def classify_batch(self, X: np.ndarray, rid: Any = 0,
                       source: Optional[str] = None) -> List[str]:
        """Classify every row of ``X`` with one batch-framed request.

        One JSON line carries the whole batch, amortizing per-line
        framing cost; the server answers with ``labels`` in row order.
        ``source`` tags the batch for router shard assignment and
        verdict aggregation.
        """
        X = np.asarray(X, dtype=float)
        if X.ndim == 1:
            X = X[None, :]
        req: Dict[str, Any] = {
            "op": "classify", "id": rid, "n": int(X.shape[0]),
            "batch": [[float(v) for v in row] for row in X],
        }
        if source is not None:
            req["source"] = str(source)
        resp = self.request(req)
        if "labels" not in resp:
            raise ServeError(
                f"batch classification failed: {resp.get('error', 'unknown')}"
                + (f" ({resp['detail']})" if resp.get("detail") else "")
            )
        labels = [str(v) for v in resp["labels"]]
        if len(labels) != X.shape[0]:
            raise ServeError(
                f"batch response has {len(labels)} labels for "
                f"{X.shape[0]} vectors"
            )
        return labels

    def classify_counts(self, counts: Dict[str, float], rid: Any = 0) -> str:
        """Classify raw event counts (server normalizes by instructions)."""
        resp = self.request({
            "op": "classify", "id": rid,
            "counts": {k: float(v) for k, v in counts.items()},
        })
        return self._label_of(resp)

    @staticmethod
    def _label_of(resp: Dict[str, Any]) -> str:
        if "label" in resp:
            return str(resp["label"])
        raise ServeError(
            f"classification failed: {resp.get('error', 'unknown')}"
            + (f" ({resp['detail']})" if resp.get("detail") else "")
        )

    def ping(self) -> bool:
        return bool(self.request({"op": "ping"}).get("ok"))

    def stats(self) -> Dict[str, Any]:
        return self.request({"op": "stats"}).get("stats", {})

    def reload(self, path: str) -> Dict[str, Any]:
        resp = self.request({"op": "reload", "path": str(path)})
        if not resp.get("reloaded"):
            raise ServeError(
                f"reload failed: {resp.get('detail', resp.get('error'))}"
            )
        return resp

    # ------------------------------------------------------------ lifecycle

    def close(self) -> None:
        try:
            self._rfile.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
