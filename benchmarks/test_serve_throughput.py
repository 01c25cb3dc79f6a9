"""Bench: the serving stack against the real trained detector.

Two guarantees the smoke tests cannot give:

* **bit-identity at scale** — the compiled tree must agree with the
  recursive walker on the *full* training set (every instance the session
  pipeline collected, paper Table 3 scale), not just on synthetic probes;
* **capacity** — the end-to-end service (TCP + JSON + micro-batching,
  one vector per request line) must sustain a floor of 10k
  classifications/s with zero shed, and the bare compiled tree must be
  far above it (it is the budget the transport spends).

Run via ``pytest benchmarks/test_serve_throughput.py -s`` (shares the
session :class:`PipelineContext`, so training is collected once).
"""

from __future__ import annotations

import numpy as np

from repro.serve.inference import as_compiled
from repro.serve.loadgen import measure_predict_batch
from repro.serve.server import ServerThread

#: Acceptance floor for the served line-mode path, classifications/s.
MIN_SERVED_RPS = 10_000


def test_compiled_tree_bit_identical_on_training_set(ctx):
    clf = ctx.detector.classifier
    X = np.asarray(ctx.training.dataset.X, dtype=float)
    compiled = as_compiled(clf)
    recursive = np.array([clf.root_.predict_one(row) for row in X],
                        dtype=object)
    assert np.array_equal(compiled.predict_batch(X), recursive)
    assert np.array_equal(clf.predict(X), recursive)
    print(f"bit-identity: {X.shape[0]} training instances, "
          f"{compiled.n_nodes}-node tree")


def test_served_throughput_meets_floor(ctx):
    from repro.serve.loadgen import generate_stream, run_loadgen

    compiled = as_compiled(ctx.detector.classifier)
    X, tags = generate_stream(20_000, lab=ctx.lab)
    vps = measure_predict_batch(compiled, X)
    thread = ServerThread(compiled, port=0)
    host, port = thread.start()
    try:
        result = run_loadgen(host, port, X, tags, window=512)
    finally:
        thread.stop()
    print(f"served {result.throughput_vps:,.0f} vectors/s "
          f"(p99 {result.latency_ms['p99']:.2f} ms, shed {result.shed}); "
          f"bare predict_batch {vps:,.0f} vectors/s")
    assert result.shed == 0
    assert result.errors == 0
    assert result.throughput_vps >= MIN_SERVED_RPS
    assert vps >= 10 * MIN_SERVED_RPS
