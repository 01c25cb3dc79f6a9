"""Simulation versioning.

``SIM_VERSION`` names the current semantics of the simulator + workload
generators.  It names every default cache file and stamps every cache
payload (:mod:`repro.cache`), so editing the simulator or a trace generator
(and bumping this) can never silently reuse stale cached results.

``SHADOW_VERSION`` names the semantics of the shadow-memory oracle
(:mod:`repro.baselines.shadow`) and the form of its cache entries.  The
oracle's disk cache is keyed on both versions — its inputs are the trace
generators (``SIM_VERSION``) and its own classification rules and entry
form (``SHADOW_VERSION``) — and the cache payload is stamped with the pair,
so a stale pickle is discarded rather than silently reused even when a
file name survives a refactor.  ``s2``: entries are whole reports with
``per_line`` (``s1`` kept four counts).
"""

SIM_VERSION = "v9"

SHADOW_VERSION = "s2"
