"""Append-only SQLite run store behind the ``repro-results`` CLI.

One file holds the whole measurement history of a checkout (or of a CI
artifact chain): every ``repro-bench`` payload, ``repro-serve bench``
document, :class:`~repro.telemetry.manifest.RunManifest`, crosscheck and
prediction-validation summary lands as one **run row** keyed by
``(kind, commit, branch, created timestamp, host fingerprint, payload
digest)`` plus a set of flattened **metric rows** (see
:mod:`repro.results.schema`).  The store is append-only by construction —
there is no update or delete API — and re-ingesting a payload whose
``(kind, digest)`` pair is already present is a no-op, so CI can blindly
``ingest`` every artifact it produced and the history stays duplicate-free
across retries and re-runs.

Corruption is a hard :class:`~repro.errors.ResultsError`, mirroring the
trace store's :class:`~repro.errors.TraceError` contract: a results
history is an *input* to the regression gate, so a truncated file, a
non-SQLite file, or a schema-version mismatch must fail loudly rather
than degrade into an empty (and therefore always-green) trend.

The columnar export (:meth:`ResultsStore.export_columnar`) writes a
Parquet-style column-major JSON document — every column as one array —
which dashboards and notebooks can load without SQLite.
"""

from __future__ import annotations

import json
import sqlite3
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Union

from repro.errors import ResultsError
from repro.results.schema import (
    STORE_SCHEMA,
    Metric,
    classify_payload,
    extract_metrics,
    payload_digest,
)

__all__ = ["ResultsStore", "RunRow", "IngestOutcome", "EXPORT_FORMAT"]

#: Format tag stamped into columnar exports.
EXPORT_FORMAT = "repro-results-export/1"

_DDL = """
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS runs (
    id            INTEGER PRIMARY KEY,
    kind          TEXT NOT NULL,
    digest        TEXT NOT NULL,
    git_sha       TEXT NOT NULL,
    git_branch    TEXT NOT NULL,
    host          TEXT NOT NULL,
    created_unix  REAL NOT NULL,
    ingested_unix REAL NOT NULL,
    source        TEXT NOT NULL,
    payload       TEXT NOT NULL,
    UNIQUE (kind, digest)
);
CREATE TABLE IF NOT EXISTS metrics (
    run_id    INTEGER NOT NULL REFERENCES runs(id),
    name      TEXT NOT NULL,
    value     REAL NOT NULL,
    unit      TEXT NOT NULL,
    direction TEXT NOT NULL,
    bound     REAL,
    UNIQUE (run_id, name)
);
CREATE INDEX IF NOT EXISTS metrics_by_name ON metrics (name, run_id);
"""


@dataclass(frozen=True)
class RunRow:
    """One ingested payload (without the full document body)."""

    run_id: int
    kind: str
    digest: str
    git_sha: str
    git_branch: str
    host: str
    created_unix: float
    source: str


@dataclass(frozen=True)
class IngestOutcome:
    """What :meth:`ResultsStore.ingest` did with one payload."""

    run_id: int
    kind: str
    digest: str
    #: False when the ``(kind, digest)`` pair was already in the store
    #: (the ingest deduplicated; ``run_id`` names the existing row).
    fresh: bool


def _provenance() -> Dict[str, str]:
    """Default (sha, branch, host) provenance for ingested rows."""
    from repro.telemetry.manifest import git_branch, git_revision, host_fingerprint

    sha, _dirty = git_revision()
    return {"git_sha": sha, "git_branch": git_branch(),
            "host": host_fingerprint()}


class ResultsStore:
    """Durable, append-only history of measurement payloads."""

    def __init__(self, path: Union[str, Path]):
        self.path = Path(path)
        try:
            self._db = sqlite3.connect(str(self.path))
            self._db.execute("PRAGMA foreign_keys = ON")
            existing = self._db.execute(
                "SELECT name FROM sqlite_master WHERE type = 'table' "
                "AND name = 'meta'").fetchone()
            if existing is None:
                with self._db:
                    self._db.executescript(_DDL)
                    self._db.execute(
                        "INSERT OR IGNORE INTO meta VALUES ('schema', ?)",
                        (STORE_SCHEMA,))
            row = self._db.execute(
                "SELECT value FROM meta WHERE key = 'schema'").fetchone()
        except sqlite3.Error as exc:
            raise ResultsError(
                f"results store {self.path} is unreadable or corrupt: "
                f"{exc}") from exc
        if row is None:
            raise ResultsError(f"results store {self.path} has no schema "
                               "tag (corrupt or foreign database)")
        if row[0] != STORE_SCHEMA:
            raise ResultsError(
                f"results store {self.path} has schema {row[0]!r}; this "
                f"build reads {STORE_SCHEMA!r} — regenerate the history")

    # ----------------------------------------------------------- lifecycle

    def close(self) -> None:
        self._db.close()

    def __enter__(self) -> "ResultsStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -------------------------------------------------------------- ingest

    def ingest(
        self,
        doc: Dict[str, Any],
        source: str = "",
        git_sha: Optional[str] = None,
        git_branch: Optional[str] = None,
        host: Optional[str] = None,
        created_unix: Optional[float] = None,
    ) -> IngestOutcome:
        """Append one payload (classified + flattened); dedup on digest.

        Provenance defaults come from the working tree and host; a
        manifest payload's own ``created_unix``/``git`` fields win over
        the defaults so re-ingesting an old artifact does not forge a
        fresh timestamp.
        """
        kind = classify_payload(doc)
        metrics = extract_metrics(kind, doc)
        digest = payload_digest(doc)
        if kind == "manifest":
            created_unix = created_unix or doc.get("created_unix") or None
            git_sha = git_sha or (doc.get("git") or {}).get("sha")
        defaults = _provenance()
        row = (
            kind,
            digest,
            git_sha or defaults["git_sha"],
            git_branch or defaults["git_branch"],
            host or defaults["host"],
            float(created_unix if created_unix is not None else time.time()),
            time.time(),
            source,
            json.dumps(doc, sort_keys=True, separators=(",", ":")),
        )
        try:
            with self._db:
                cur = self._db.execute(
                    "INSERT OR IGNORE INTO runs (kind, digest, git_sha, "
                    "git_branch, host, created_unix, ingested_unix, "
                    "source, payload) VALUES (?,?,?,?,?,?,?,?,?)", row)
                if cur.rowcount == 0:
                    existing = self._db.execute(
                        "SELECT id FROM runs WHERE kind = ? AND digest = ?",
                        (kind, digest)).fetchone()
                    return IngestOutcome(int(existing[0]), kind, digest,
                                         fresh=False)
                run_id = int(cur.lastrowid or 0)
                self._db.executemany(
                    "INSERT INTO metrics (run_id, name, value, unit, "
                    "direction, bound) VALUES (?,?,?,?,?,?)",
                    [(run_id, m.name, m.value, m.unit, m.direction, m.bound)
                     for m in metrics])
        except sqlite3.Error as exc:
            raise ResultsError(f"results store {self.path} rejected an "
                               f"ingest: {exc}") from exc
        return IngestOutcome(run_id, kind, digest, fresh=True)

    def ingest_file(self, path: Union[str, Path]) -> IngestOutcome:
        """Ingest one JSON file; the file name becomes the source tag."""
        path = Path(path)
        try:
            doc = json.loads(path.read_text())
        except OSError as exc:
            raise ResultsError(f"cannot read payload {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ResultsError(f"payload {path} is not valid JSON: "
                               f"{exc}") from exc
        return self.ingest(doc, source=path.name)

    # ------------------------------------------------------------- queries

    def _query(self, sql: str, params: Sequence[Any] = ()) -> List[Any]:
        try:
            return self._db.execute(sql, tuple(params)).fetchall()
        except sqlite3.Error as exc:
            raise ResultsError(f"results store {self.path} query failed: "
                               f"{exc}") from exc

    def kinds(self) -> List[str]:
        """Payload kinds present, in first-ingested order."""
        return [r[0] for r in self._query(
            "SELECT kind FROM runs GROUP BY kind ORDER BY MIN(id)")]

    def runs(self, kind: Optional[str] = None) -> List[RunRow]:
        """All run rows (optionally one kind), in append order."""
        sql = ("SELECT id, kind, digest, git_sha, git_branch, host, "
               "created_unix, source FROM runs")
        params: List[Any] = []
        if kind is not None:
            sql += " WHERE kind = ?"
            params.append(kind)
        sql += " ORDER BY id"
        return [RunRow(int(r[0]), r[1], r[2], r[3], r[4], r[5],
                       float(r[6]), r[7])
                for r in self._query(sql, params)]

    def latest_run(self, kind: str) -> Optional[RunRow]:
        rows = self._query(
            "SELECT id, kind, digest, git_sha, git_branch, host, "
            "created_unix, source FROM runs WHERE kind = ? "
            "ORDER BY id DESC LIMIT 1", (kind,))
        if not rows:
            return None
        r = rows[0]
        return RunRow(int(r[0]), r[1], r[2], r[3], r[4], r[5],
                      float(r[6]), r[7])

    def payload(self, run_id: int) -> Dict[str, Any]:
        rows = self._query("SELECT payload FROM runs WHERE id = ?",
                           (run_id,))
        if not rows:
            raise ResultsError(f"no run #{run_id} in {self.path}")
        return json.loads(rows[0][0])

    def metrics_for(self, run_id: int) -> List[Metric]:
        """The flattened metrics of one run, in insertion order."""
        return [Metric(r[0], float(r[1]), r[2], r[3],
                       None if r[4] is None else float(r[4]))
                for r in self._query(
                    "SELECT name, value, unit, direction, bound "
                    "FROM metrics WHERE run_id = ? ORDER BY rowid",
                    (run_id,))]

    def series(
        self,
        name: str,
        kind: Optional[str] = None,
        before_run: Optional[int] = None,
        limit: Optional[int] = None,
    ) -> List[float]:
        """One metric's values in append (trajectory) order.

        ``before_run`` excludes the named run and everything after it —
        the gate uses it to split "history" from "the run under test".
        ``limit`` keeps only the most recent values *after* that split.
        """
        sql = ("SELECT m.value FROM metrics m JOIN runs r ON r.id = m.run_id "
               "WHERE m.name = ?")
        params: List[Any] = [name]
        if kind is not None:
            sql += " AND r.kind = ?"
            params.append(kind)
        if before_run is not None:
            sql += " AND r.id < ?"
            params.append(before_run)
        sql += " ORDER BY r.id"
        values = [float(r[0]) for r in self._query(sql, params)]
        if limit is not None and limit >= 0:
            values = values[-limit:] if limit else []
        return values

    def max_bound(self, name: str, direction: str,
                  kind: Optional[str] = None) -> Optional[float]:
        """The strictest hard bound ever recorded for a metric.

        Taking the max (higher-is-better) or min (lower-is-better) over
        the whole history means a payload that *drops* its floor cannot
        weaken the gate — the old floor keeps gating.
        """
        sql = ("SELECT m.bound FROM metrics m JOIN runs r ON r.id = m.run_id "
               "WHERE m.name = ? AND m.bound IS NOT NULL")
        params: List[Any] = [name]
        if kind is not None:
            sql += " AND r.kind = ?"
            params.append(kind)
        bounds = [float(r[0]) for r in self._query(sql, params)]
        if not bounds:
            return None
        return max(bounds) if direction == "higher" else min(bounds)

    # -------------------------------------------------------------- export

    def export_columnar(self, path: Union[str, Path]) -> Path:
        """Write the whole history as column-major JSON (Parquet-style)."""
        runs = self.runs()
        metric_rows = self._query(
            "SELECT run_id, name, value, unit, direction, bound "
            "FROM metrics ORDER BY rowid")
        doc = {
            "format": EXPORT_FORMAT,
            "schema": STORE_SCHEMA,
            "runs": {
                "id": [r.run_id for r in runs],
                "kind": [r.kind for r in runs],
                "digest": [r.digest for r in runs],
                "git_sha": [r.git_sha for r in runs],
                "git_branch": [r.git_branch for r in runs],
                "host": [r.host for r in runs],
                "created_unix": [r.created_unix for r in runs],
                "source": [r.source for r in runs],
            },
            "metrics": {
                "run_id": [int(r[0]) for r in metric_rows],
                "name": [r[1] for r in metric_rows],
                "value": [float(r[2]) for r in metric_rows],
                "unit": [r[3] for r in metric_rows],
                "direction": [r[4] for r in metric_rows],
                "bound": [None if r[5] is None else float(r[5])
                          for r in metric_rows],
            },
        }
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        return path
