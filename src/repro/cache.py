"""The one versioned, validated on-disk result cache (:class:`ResultCache`).

A pickle on disk is an outside input and ``pickle.load`` runs code from it:
a file or directory another user owns or can write is never loaded, a
payload not stamped with the owner's versions is discarded, and entries the
owner's ``admit`` check rejects are dropped.  Each case logs, counts
``<name>.cache.untrusted`` / ``.invalidated`` / ``.corrupt_files`` /
``.dropped_entries`` and recomputes.  Imports only the stdlib and the
stdlib-only telemetry core: the serving fleet imports it through ``Lab``.
"""

from __future__ import annotations

import contextlib
import logging
import os
import pickle
import tempfile
from pathlib import Path
from typing import Any, Callable, Dict, Hashable, Iterable, List, Optional, Tuple, Union

from repro.telemetry.core import TELEMETRY

log = logging.getLogger(__name__)

#: New entries that trigger a flush.
FLUSH_EVERY = 25


def default_path(filename: str) -> Path:
    """``filename`` under ``$REPRO_CACHE_DIR``, else ``~/.cache/repro``."""
    base = os.environ.get("REPRO_CACHE_DIR")
    return (Path(base) if base else Path.home() / ".cache" / "repro") / filename


def _untrusted(path: Path) -> Optional[str]:
    """Why the file ``path`` or its directory must not be loaded (POSIX)."""
    for p in (path.parent, path):
        try:
            st = p.stat()
        except OSError:
            continue
        if st.st_uid != os.getuid():
            return f"{p} is owned by uid {st.st_uid}"
        if st.st_mode & 0o022:
            return f"{p} is group- or world-writable"
    return None


class ResultCache:
    """A key -> result map persisted as one ``{"versions", "entries"}`` pickle
    at ``path`` (None: memory only).  ``admit(value)`` returns the entry to
    keep, possibly normalised, or None; it runs on every load and hit."""

    def __init__(self, name: str, versions: Tuple[str, ...],
                 admit: Callable[[Any], Any], path: Union[str, Path, None]) -> None:
        self.name = name
        self.versions = tuple(versions)
        self._admit = admit
        self._entries: Dict[Hashable, Any] = {}
        self._dirty = 0
        self.path = None if path is None else Path(path)
        if self.path is not None:
            self._load(self.path)

    def __len__(self) -> int:
        return len(self._entries)

    def _count(self, what: str, n: int = 1) -> None:
        TELEMETRY.count(f"{self.name}.cache.{what}", n)

    def get_or_compute(self, key: Hashable, fn: Callable[[], Any]) -> Any:
        """The cached result for ``key``, else ``fn()`` (then cached)."""
        hit = self._entries.get(key)
        if hit is not None:
            kept = self._admit(hit)
            if kept is not None:
                self._count("hit")
                return kept
            log.warning("%s cache entry for %s is mangled; recomputing",
                        self.name, key)
            self._count("dropped_entries")
        self._count("miss")
        value = fn()
        self.update([(key, value)])
        return value

    def missing(self, keys: Iterable[Hashable]) -> List[Hashable]:
        """The distinct ``keys`` not cached, in first-seen order."""
        return [k for k in dict.fromkeys(keys) if k not in self._entries]

    def update(self, pairs: Iterable[Tuple[Hashable, Any]]) -> None:
        """Install results computed elsewhere (e.g. by worker processes)."""
        for key, value in pairs:
            self._entries[key] = value
            self._dirty += 1
        if self._dirty >= FLUSH_EVERY:
            self.flush()

    def clear(self) -> None:
        """Forget the in-memory entries (the file on disk is untouched)."""
        self._entries.clear()

    def flush(self) -> None:
        """Persist new entries through a temp file of this flush's own, so
        concurrent writers never clash (the last rename wins).  An
        ``OSError`` warns once and leaves the run uncached."""
        if self.path is None or not self._dirty:
            return
        payload = {"versions": self.versions, "entries": self._entries}
        try:
            self.path.parent.mkdir(mode=0o700, parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=self.path.parent,
                                       prefix=self.path.name, suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as fh:
                    pickle.dump(payload, fh, protocol=pickle.HIGHEST_PROTOCOL)
                os.replace(tmp, self.path)
            except BaseException:
                with contextlib.suppress(OSError):
                    os.unlink(tmp)
                raise
        except OSError as exc:
            log.warning("%s cache %s not writable (%s); running uncached",
                        self.name, self.path, exc)
            self.path = None
            return
        self._dirty = 0

    def _load(self, path: Path) -> None:
        reason = _untrusted(path) if hasattr(os, "getuid") else None
        if reason is not None:
            log.warning("%s cache refused: %s; running uncached",
                        self.name, reason)
            self._count("untrusted")
            self.path = None
            return
        try:
            with open(path, "rb") as fh:
                payload = pickle.load(fh)
        except FileNotFoundError:
            return
        except Exception as exc:
            log.warning("%s cache %s unreadable (%s: %s); recomputing",
                        self.name, path, type(exc).__name__, exc)
            self._count("corrupt_files")
            return
        if not (isinstance(payload, dict)
                and payload.get("versions") == self.versions
                and isinstance(payload.get("entries"), dict)):
            self._count("invalidated")  # stale, or the legacy bare dict
            return
        for key, value in payload["entries"].items():
            kept = self._admit(value)
            if kept is not None:
                self._entries[key] = kept
        dropped = len(payload["entries"]) - len(self._entries)
        if dropped:
            log.warning("%s cache %s: dropped %d mangled entries; they will "
                        "be recomputed", self.name, path, dropped)
            self._count("dropped_entries", dropped)
