"""Online false-sharing detection service (``repro.serve``).

The paper's pitch is detection *without instrumentation* from PMU counts —
exactly what makes the method deployable as an always-on monitor rather
than a batch experiment.  This package turns the trained J48/C4.5 tree
into that monitor:

* :mod:`repro.serve.inference` — the fitted tree compiled into flat numpy
  arrays with a vectorized ``predict_batch`` that classifies thousands of
  normalized event vectors per call, bit-identical to the recursive
  :meth:`repro.ml.c45.C45Classifier.predict`;
* :mod:`repro.serve.stream` — sliding/tumbling-window aggregation of raw
  PMU samples into instruction-normalized feature vectors, keyed per
  source (pid/core);
* :mod:`repro.serve.server` — an asyncio JSON-lines TCP server with
  micro-batching, bounded queues, explicit backpressure (typed
  ``overloaded`` shed responses), graceful drain and hot model reload;
* :mod:`repro.serve.client` — a small synchronous request/response
  client library;
* :mod:`repro.serve.loadgen` — a deterministic load generator replaying
  suite-derived event streams over one or more id-matched connections,
  reporting p50/p95/p99 latency, throughput and shed counts for each rung
  of the serving ladder (``BENCH_serve.json``);
* :mod:`repro.serve.router` — a consistent-hash router sharding classify
  traffic by ``source`` onto a pool of workers, forwarding raw bytes for
  bit-identical verdicts;
* :mod:`repro.serve.admission` — token-bucket admission control with an
  explicit per-source shed ledger;
* :mod:`repro.serve.aggregate` — fleet-level majority/streak verdict
  aggregation over the relayed labels;
* :mod:`repro.serve.fleet` — worker-process supervision: spawn, watch,
  hot-restart, all wired to the router (``repro-serve fleet``).
"""

from repro.serve.admission import AdmissionController, TokenBucket
from repro.serve.aggregate import SourceVerdicts, VerdictAggregator
from repro.serve.client import ServeClient
from repro.serve.fleet import DetectionFleet, FleetSupervisor, FleetThread
from repro.serve.inference import CompiledTree, as_compiled
from repro.serve.loadgen import LoadResult, generate_stream, run_loadgen
from repro.serve.router import DetectionRouter, HashRing, RouterThread
from repro.serve.server import DetectionServer, ServerThread
from repro.serve.stream import StreamWindow, WindowAggregator

__all__ = [
    "CompiledTree",
    "as_compiled",
    "DetectionServer",
    "ServerThread",
    "ServeClient",
    "StreamWindow",
    "WindowAggregator",
    "LoadResult",
    "generate_stream",
    "run_loadgen",
    "AdmissionController",
    "TokenBucket",
    "SourceVerdicts",
    "VerdictAggregator",
    "DetectionRouter",
    "HashRing",
    "RouterThread",
    "DetectionFleet",
    "FleetSupervisor",
    "FleetThread",
]
