"""One asyncio service on a private event loop in a daemon thread.

:class:`~repro.serve.server.ServerThread`,
:class:`~repro.serve.router.RouterThread` and
:class:`~repro.serve.fleet.FleetThread` all embed an async service (an
object with ``async start() -> (host, port)`` and ``async stop()``) in
blocking code — the CLI, the load generator, tests, experiments.  This
base owns the loop, the thread, start-up error surfacing, synchronous
:meth:`LoopThread.call` marshalling and shutdown; subclasses only name
the service and pick their timeouts.
"""

from __future__ import annotations

import asyncio
import threading
from typing import Any, Optional, Tuple

from repro.errors import ServeError

__all__ = ["LoopThread"]


class LoopThread:
    """Run ``service`` on its own event loop in a daemon thread."""

    #: The service's name in error messages, and the thread's name.
    label = "server"
    thread_name = "repro-serve"
    #: Default timeout of :meth:`call`.
    call_timeout = 30.0
    #: Timeout of the ``service.stop()`` call, then of the thread join.
    stop_timeout = 30.0
    join_timeout = 10.0

    def __init__(self, service: Any) -> None:
        self._service = service
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._started = threading.Event()
        self._startup_error: Optional[BaseException] = None
        self.address: Optional[Tuple[str, int]] = None

    def start_timeout(self) -> float:
        """Seconds :meth:`start` waits for the service to bind."""
        return 10.0

    def start(self) -> Tuple[str, int]:
        if self._thread is not None:
            raise ServeError(f"{self.label} thread already started")
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._run, name=self.thread_name, daemon=True
        )
        self._thread.start()
        if not self._started.wait(timeout=self.start_timeout()):
            raise ServeError(f"{self.label} thread failed to start")
        if self._startup_error is not None:
            raise ServeError(
                f"{self.label} failed to start: {self._startup_error}"
            ) from self._startup_error
        assert self.address is not None
        return self.address

    def _run(self) -> None:
        assert self._loop is not None
        asyncio.set_event_loop(self._loop)
        try:
            self.address = self._loop.run_until_complete(
                self._service.start())
        except BaseException as exc:  # surface bind errors to start()
            self._startup_error = exc
            self._started.set()
            self._loop.close()
            return
        self._started.set()
        self._loop.run_forever()
        # Drain callbacks scheduled during stop() before closing the loop.
        self._loop.run_until_complete(asyncio.sleep(0))
        self._loop.close()

    def _call_soon(self, fn: Any) -> None:
        """Schedule the plain callable ``fn`` on the loop (if running)."""
        if self._loop is not None:
            self._loop.call_soon_threadsafe(fn)

    def call(self, coro_fn, *args, timeout: Optional[float] = None,
             **kwargs):
        """Run ``await coro_fn(*args)`` on the service loop, synchronously."""
        if self._loop is None:
            raise ServeError(f"{self.label} thread is not running")
        fut = asyncio.run_coroutine_threadsafe(
            coro_fn(*args, **kwargs), self._loop
        )
        return fut.result(
            timeout=self.call_timeout if timeout is None else timeout)

    def _shutdown(self, **stop_kwargs: Any) -> None:
        if self._loop is None or self._thread is None:
            return
        self.call(self._service.stop, timeout=self.stop_timeout,
                  **stop_kwargs)
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=self.join_timeout)
        self._thread = None
        self._loop = None

    def stop(self) -> None:
        self._shutdown()

    def __enter__(self) -> Tuple[str, int]:
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
