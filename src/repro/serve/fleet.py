"""Worker-process supervision for the sharded detection tier.

``repro.serve.fleet`` ties the pieces together into one deployable unit:

* :class:`FleetSupervisor` — spawns N worker *processes* (each a plain
  :class:`~repro.serve.server.DetectionServer` + compiled tree on its
  own event loop and ephemeral port, built from a persisted model
  document), restarts them on demand or on crash, and tears them down;
* :class:`DetectionFleet` — a supervisor plus a
  :class:`~repro.serve.router.DetectionRouter` wired to the pool, with a
  watchdog that detects dead workers, respawns them and reconnects the
  router (the shard's *name* — and therefore its hash-ring slice — is
  stable across restarts, so only the restarting shard's in-flight work
  is shed; every other source's stream is untouched);
* :class:`FleetThread` — the synchronous wrapper (the twin of
  :class:`~repro.serve.server.ServerThread`) used by the CLI, the load
  generator and tests.

Workers are separate OS processes (``multiprocessing`` spawn context, so
no event-loop or fork-safety hazards), which is what buys real CPU
parallelism on multi-core hosts: each worker pins one core's worth of
JSON framing + inference, and the router's raw-byte forwarding keeps the
front-end cheap enough to feed several of them.
"""

from __future__ import annotations

import asyncio
import json
import multiprocessing as mp
import signal
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.errors import ServeError
from repro.serve.admission import AdmissionController
from repro.serve.aggregate import VerdictAggregator
from repro.serve.loopthread import LoopThread
from repro.serve.router import DetectionRouter

__all__ = ["FleetSupervisor", "DetectionFleet", "FleetThread",
           "load_model_doc"]


def load_model_doc(model: Union[str, Path, Dict[str, Any], Any]) -> Dict[str, Any]:
    """A picklable model *document* for shipping to worker processes.

    Accepts a path to persisted model JSON, an already-loaded document
    dict, or a fitted classifier (serialized via
    :func:`repro.ml.persistence.classifier_to_dict`).
    """
    if isinstance(model, dict):
        return model
    if isinstance(model, (str, Path)):
        try:
            with Path(model).open() as fh:
                doc = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ServeError(f"cannot load model document: {exc}") from exc
        if not isinstance(doc, dict):
            raise ServeError("model document must be a JSON object")
        return doc
    if hasattr(model, "root_"):
        from repro.ml.persistence import classifier_to_dict

        return classifier_to_dict(model)
    raise ServeError(
        f"cannot ship a {type(model).__name__} to worker processes; "
        "pass a model path, document dict, or fitted classifier"
    )


def _worker_main(model_doc: Dict[str, Any], host: str, conn,
                 max_batch: int, max_wait_s: float, backlog: int) -> None:
    """Worker process entry point: serve one DetectionServer forever."""
    # The supervisor owns this process's lifecycle (terminate/join); a
    # terminal Ctrl-C must not race it with a KeyboardInterrupt traceback.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    # Import inside the child: the spawn context re-imports repro fresh.
    from repro.ml.persistence import classifier_from_dict
    from repro.serve.inference import CompiledTree
    from repro.serve.server import DetectionServer

    try:
        compiled = CompiledTree.from_classifier(
            classifier_from_dict(model_doc)
        )
        server = DetectionServer(
            compiled, host=host, port=0, max_batch=max_batch,
            max_wait_s=max_wait_s, backlog=backlog,
        )

        async def _serve() -> None:
            bound_host, bound_port = await server.start()
            conn.send(("ready", bound_host, bound_port))
            conn.close()
            # Serve until the supervisor's process is gone, however it died.
            orphaned = asyncio.Event()
            asyncio.get_running_loop().add_reader(
                mp.parent_process().sentinel, orphaned.set)
            await orphaned.wait()

        asyncio.run(_serve())
    except KeyboardInterrupt:  # pragma: no cover - parent-driven shutdown
        pass
    except BaseException as exc:
        try:
            conn.send(("error", repr(exc), 0))
            conn.close()
        except OSError:  # pragma: no cover - parent already gone
            pass
        raise


class _Worker:
    """One supervised worker process and its bound address."""

    __slots__ = ("name", "process", "host", "port")

    def __init__(self, name: str, process, host: str, port: int) -> None:
        self.name = name
        self.process = process
        self.host = host
        self.port = port

    def alive(self) -> bool:
        return self.process.is_alive()


class FleetSupervisor:
    """Spawns, restarts and stops the worker-process pool."""

    def __init__(
        self,
        model: Union[str, Path, Dict[str, Any], Any],
        workers: int = 2,
        host: str = "127.0.0.1",
        max_batch: int = 256,
        max_wait_s: float = 0.002,
        backlog: int = 4096,
        start_timeout_s: float = 60.0,
    ) -> None:
        if workers < 1:
            raise ServeError("a fleet needs at least one worker")
        self.model_doc = load_model_doc(model)
        self.n_workers = workers
        self.host = host
        self.max_batch = max_batch
        self.max_wait_s = max_wait_s
        self.backlog = backlog
        self.start_timeout_s = start_timeout_s
        self._ctx = mp.get_context("spawn")
        self._workers: Dict[str, _Worker] = {}
        self.restarts = 0

    # ------------------------------------------------------------ lifecycle

    def start(self) -> List[Tuple[str, str, int]]:
        """Spawn every worker; returns ``[(name, host, port), ...]``."""
        if self._workers:
            raise ServeError("fleet already started")
        try:
            for i in range(self.n_workers):
                self._spawn(f"w{i}")
        except BaseException:
            self.stop()  # no half-started fleet outlives the failure
            raise
        return [(w.name, w.host, w.port)
                for w in self._workers.values()]

    def _spawn(self, name: str) -> _Worker:
        parent_conn, child_conn = self._ctx.Pipe(duplex=False)
        process = self._ctx.Process(
            target=_worker_main,
            args=(self.model_doc, self.host, child_conn,
                  self.max_batch, self.max_wait_s, self.backlog),
            name=f"repro-serve-{name}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        with parent_conn:
            try:
                ready = parent_conn.poll(self.start_timeout_s)
                status, host, port = parent_conn.recv() if ready else (
                    "error", f"did not start within {self.start_timeout_s}s", 0)
            except EOFError:
                status, host, port = "error", "exited before it was ready", 0
        if status != "ready":
            self._terminate(process)
            raise ServeError(f"worker {name} failed to start: {host}")
        worker = _Worker(name, process, host, int(port))
        self._workers[name] = worker
        return worker

    def restart(self, name: str) -> Tuple[str, int]:
        """Kill ``name`` and spawn a replacement; returns its new address."""
        worker = self._workers.pop(name, None)
        if worker is None:
            raise ServeError(f"unknown worker {name!r}")
        self._terminate(worker.process)
        self.restarts += 1
        fresh = self._spawn(name)
        return fresh.host, fresh.port

    def stop(self) -> None:
        for worker in list(self._workers.values()):
            self._terminate(worker.process)
        self._workers.clear()

    @staticmethod
    def _terminate(process) -> None:
        if process.is_alive():
            process.terminate()
        process.join(timeout=10.0)
        if process.is_alive():  # pragma: no cover - stuck process
            process.kill()
            process.join(timeout=5.0)

    # -------------------------------------------------------------- reading

    @property
    def workers(self) -> Dict[str, Tuple[str, int]]:
        return {w.name: (w.host, w.port) for w in self._workers.values()}

    def dead_workers(self) -> List[str]:
        return sorted(name for name, w in self._workers.items()
                      if not w.alive())

    def stats(self) -> Dict[str, Any]:
        return {
            "workers": self.n_workers,
            "alive": sum(1 for w in self._workers.values() if w.alive()),
            "restarts": self.restarts,
            "config": {
                "max_batch": self.max_batch,
                "max_wait_ms": self.max_wait_s * 1e3,
                "backlog": self.backlog,
            },
        }


class DetectionFleet:
    """Supervisor + router, managed together on one event loop."""

    def __init__(
        self,
        model: Union[str, Path, Dict[str, Any], Any],
        workers: int = 2,
        host: str = "127.0.0.1",
        port: int = 0,
        admission: Optional[AdmissionController] = None,
        aggregator: Optional[VerdictAggregator] = None,
        watchdog_interval_s: float = 0.25,
        **worker_opts,
    ) -> None:
        self.supervisor = FleetSupervisor(model, workers=workers,
                                          **worker_opts)
        self.router = DetectionRouter(host=host, port=port,
                                      admission=admission,
                                      aggregator=aggregator)
        self.watchdog_interval_s = watchdog_interval_s
        self._watchdog_task: Optional[asyncio.Task] = None

    async def start(self) -> Tuple[str, int]:
        """Spawn workers, start the router, join the pool; returns the
        router's bound address."""
        loop = asyncio.get_running_loop()
        members = await loop.run_in_executor(None, self.supervisor.start)
        address = await self.router.start()
        for name, host, port in members:
            await self.router.add_worker(name, host, port)
        if self.watchdog_interval_s > 0:
            self._watchdog_task = asyncio.create_task(self._watchdog())
        return address

    async def stop(self) -> None:
        if self._watchdog_task is not None:
            self._watchdog_task.cancel()
            try:
                await self._watchdog_task
            except asyncio.CancelledError:
                pass
            self._watchdog_task = None
        await self.router.stop()
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(None, self.supervisor.stop)

    async def restart_worker(self, name: str) -> Tuple[str, int]:
        """Hot-restart one shard: fail its in-flight work explicitly,
        respawn the process, reconnect — other shards never notice."""
        await self.router.mark_worker_down(name)
        loop = asyncio.get_running_loop()
        host, port = await loop.run_in_executor(
            None, self.supervisor.restart, name
        )
        await self.router.set_worker_address(name, host, port)
        return host, port

    async def _watchdog(self) -> None:
        """Respawn crashed workers automatically."""
        while True:
            await asyncio.sleep(self.watchdog_interval_s)
            for name in self.supervisor.dead_workers():
                try:
                    await self.restart_worker(name)
                except ServeError:  # pragma: no cover - respawn race
                    continue

    def stats(self) -> Dict[str, Any]:
        return {"supervisor": self.supervisor.stats(),
                "router": self.router.stats()}


class FleetThread(LoopThread):
    """A :class:`DetectionFleet` on a private event loop in a thread.

    Synchronous embedding for the CLI, load generator and tests::

        with FleetThread(model_doc, workers=4) as (host, port):
            client = ServeClient(host, port)
            ...
    """

    label = "fleet"
    thread_name = "repro-serve-fleet"
    call_timeout = 60.0
    stop_timeout = 120.0
    join_timeout = 30.0

    def __init__(self, model, **kwargs) -> None:
        self.fleet = DetectionFleet(model, **kwargs)
        super().__init__(self.fleet)

    def start_timeout(self) -> float:
        # Spawning N interpreter processes is slow; be generous.
        return self.fleet.supervisor.start_timeout_s

    def restart_worker(self, name: str) -> Tuple[str, int]:
        """Thread-safe hot restart of one shard."""
        return self.call(self.fleet.restart_worker, name, timeout=120.0)

    def stats(self) -> Dict[str, Any]:
        return self.fleet.stats()
