"""Layer timers for the serving processes of a ``--trace 1`` run.

Python imports ``sitecustomize`` at start-up from the first ``sys.path``
entry that holds one.  ``online.Fleet`` puts this directory on the
``PYTHONPATH`` of the fleet host only for ``--trace 1`` runs and sets
``PERFBENCH_TRACE=1``; the spawn-context worker processes of
``repro.serve.fleet`` inherit that environment, so every serving process
installs the timers below before it serves, without a line of the program
changed.

* worker ``parse``: ``DetectionServer._dispatch`` (JSON decode, feature
  extraction, queue admission) per request line;
* worker ``queue``: from a request's admission to the start of the batch
  that classifies it;
* worker ``predict``: ``CompiledTree.predict_batch``, with rows as units;
* worker ``encode``: the ``json.dumps`` of each response line;
* router ``peek``: ``DetectionRouter._peek_classify`` per request line;
* router ``account``: ``DetectionRouter._account_response`` (decode of the
  worker's reply, shed ledger, verdict aggregation) per response line.

A worker's ``stats`` reply gains a ``perfbench`` entry with its CPU time
and ledger; the router's ledger is ``LEDGER`` in the fleet host.
"""

from __future__ import annotations

import os

LEDGER = None

if os.environ.get("PERFBENCH_TRACE") == "1":
    import json
    import time

    from ledger import Ledger

    LEDGER = Ledger()

    class _TimedJson:
        """Stands in for the ``json`` module inside ``repro.serve.server``."""

        JSONDecodeError = json.JSONDecodeError
        loads = staticmethod(json.loads)

        @staticmethod
        def dumps(obj, **kwargs):
            t0 = time.perf_counter()
            out = json.dumps(obj, **kwargs)
            LEDGER.add("encode", time.perf_counter() - t0)
            return out

    def _install() -> None:
        from repro.serve import server as server_mod
        from repro.serve.inference import CompiledTree
        from repro.serve.router import DetectionRouter
        from repro.serve.server import DetectionServer

        LEDGER.wrap(DetectionServer, "_dispatch", "parse")
        LEDGER.wrap(CompiledTree, "predict_batch", "predict",
                    units=lambda args, result: len(result))
        LEDGER.wrap(DetectionRouter, "_peek_classify", "peek")
        LEDGER.wrap(DetectionRouter, "_account_response", "account")
        server_mod.json = _TimedJson

        admitted = {}
        submit = DetectionServer.submit
        classify = DetectionServer._classify_batch
        stats = DetectionServer.stats

        def timed_submit(self, features):
            fut = submit(self, features)
            if fut is not None:
                admitted[fut] = time.perf_counter()
            return fut

        def timed_classify(self, batch):
            now = time.perf_counter()
            for pending in batch:
                t0 = admitted.pop(pending.future, None)
                if t0 is not None:
                    LEDGER.add("queue", now - t0)
            return classify(self, batch)

        def stats_with_ledger(self):
            out = stats(self)
            out["perfbench"] = {"cpu_s": time.process_time(),
                                "ledger": LEDGER.snapshot()}
            return out

        DetectionServer.submit = timed_submit
        DetectionServer._classify_batch = timed_classify
        DetectionServer.stats = stats_with_ledger

    _install()
