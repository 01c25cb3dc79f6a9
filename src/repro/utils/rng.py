"""Deterministic random-number utilities.

Every stochastic component in the library (trace generators, PMU noise,
spin-lock nondeterminism) draws from a generator derived here, so a run is
fully determined by ``(workload, config, seed)``.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Union

import numpy as np

Seedable = Union[int, str, bytes, None]


def stable_hash(*parts: Seedable) -> int:
    """Return a 64-bit hash that is stable across processes and sessions.

    Python's builtin ``hash`` is randomized per process for strings; we need
    reproducible seeds derived from workload names and configuration fields,
    so we hash through blake2b instead.
    """
    h = hashlib.blake2b(digest_size=8)
    for part in parts:
        if part is None:
            h.update(b"\x00none")
        elif isinstance(part, bytes):
            h.update(b"\x01" + part)
        elif isinstance(part, str):
            h.update(b"\x02" + part.encode("utf-8"))
        elif isinstance(part, int):
            if -(1 << 127) <= part < (1 << 127):
                h.update(b"\x03" + part.to_bytes(16, "little", signed=True))
            else:
                # Wider than 128 bits: its own tag leaves every narrower
                # int's hash (and so every derived seed) unchanged.
                h.update(b"\x04" + str(part).encode("ascii"))
        else:
            raise TypeError(f"unhashable seed part: {part!r}")
        h.update(b"\xff")
    return int.from_bytes(h.digest(), "little")


def rng_for(*parts: Seedable) -> np.random.Generator:
    """Return a numpy Generator seeded stably from the given parts."""
    return np.random.default_rng(stable_hash(*parts))


def spawn(rng: np.random.Generator, n: int) -> list:
    """Split a generator into ``n`` independent child generators."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return [np.random.default_rng(s) for s in rng.integers(0, 2**63, size=n)]


def choice_weighted(rng: np.random.Generator, items: Iterable, weights) -> object:
    """Pick one item with the given (unnormalized) weights."""
    items = list(items)
    w = np.asarray(list(weights), dtype=float)
    if len(items) != w.size or not len(items):
        raise ValueError("items and weights must be equal-length and non-empty")
    if (w < 0).any() or w.sum() <= 0:
        raise ValueError("weights must be non-negative and sum > 0")
    return items[int(rng.choice(len(items), p=w / w.sum()))]
