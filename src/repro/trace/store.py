"""Zero-copy binary trace store: fixed-width columns behind a memmap.

Generator-materialized traces cap trace scale: every run re-synthesizes the
same numpy arrays, every worker process receives them pickled, and a
GB-scale trace costs GB of resident copies per process.  mtrace-style tools
operate on flat binary access logs for exactly this reason, so this module
gives traces the same shape:

* fixed-width little-endian columns (``addr: int64``, ``is_write: uint8``,
  ``core: int32``) laid out back to back, each 64-byte aligned;
* a versioned JSON header carrying the column directory, free-form ``meta``
  (thread spans, instruction weights...) and a blake2b **content digest**
  computed at write time, so consumers can key caches on the trace's bytes
  in O(1) without re-hashing gigabytes;
* :func:`open_store` maps the file as a read-only :class:`numpy.memmap`:
  opening is O(1) regardless of size, workers that open the same path share
  pages through the OS cache instead of holding private copies, and slicing
  a column is a view, never a copy;
* :data:`STORED` makes program stores one more target of the pipeline
  (``Lab.simulate``, ``PipelineContext.shadow_report`` and the engine's
  case tasks): a :class:`StoreCase` names a file by path and digest, and
  workers open that path themselves, so no trace bytes are pickled.

Anything malformed — bad magic, truncated header or columns, an unknown
format version, a directory that does not parse, a column that overlaps the
header or another column — is a hard
:class:`~repro.errors.TraceError`: a trace store is an input, not an
accelerator, so silent degradation is never correct (contrast the shadow
cache in :mod:`repro.experiments.context`, which may legitimately drop
corrupt entries and recompute).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import TraceError
from repro.trace.access import ProgramTrace, ThreadTrace

__all__ = [
    "STORE_MAGIC",
    "STORE_VERSION",
    "ColumnSpec",
    "TraceStore",
    "write_store",
    "open_store",
    "save_program",
    "open_program",
    "StoreCase",
    "STORED",
]

#: File magic ("Repro TRaCe").
STORE_MAGIC = b"RTRC"

#: Current on-disk format version.  Readers demand an exact match: a store
#: written by a different format revision must be regenerated, not guessed
#: at.  Version 1 writers could place a header's columns 64 bytes past the
#: offsets it records; no version 1 file is read.
STORE_VERSION = 2

#: Column blobs start on 64-byte boundaries (one cache line): memmap views
#: are aligned for every dtype the format carries.
_ALIGN = 64

#: dtypes the format admits, by canonical name.  Little-endian fixed width
#: only — the reader rejects anything else so a store is portable bytes,
#: not a pickle.
_DTYPES = {
    "int64": np.dtype("<i8"),
    "int32": np.dtype("<i4"),
    "int16": np.dtype("<i2"),
    "uint8": np.dtype("u1"),
}


def _dtype_name(dtype: np.dtype) -> str:
    for name, dt in _DTYPES.items():
        if dt == dtype.newbyteorder("<"):
            return name
    raise TraceError(f"unsupported column dtype {dtype!r}")


def _pad(offset: int) -> int:
    return (-offset) % _ALIGN


@dataclass(frozen=True)
class ColumnSpec:
    """Directory entry for one column: where its bytes live."""

    name: str
    dtype: str
    offset: int
    n: int

    @property
    def nbytes(self) -> int:
        return self.n * _DTYPES[self.dtype].itemsize


@dataclass
class TraceStore:
    """A trace store opened read-only; columns are zero-copy memmap views."""

    path: Path
    version: int
    n: int
    digest: str
    meta: Dict[str, object]
    columns: Dict[str, np.ndarray] = field(repr=False)

    def __getitem__(self, name: str) -> np.ndarray:
        try:
            return self.columns[name]
        except KeyError:
            raise TraceError(
                f"store {self.path} has no column {name!r} "
                f"(has: {sorted(self.columns)})"
            ) from None


def _content_digest(arrays: Sequence[Tuple[str, np.ndarray]]) -> str:
    """blake2b over column names, dtypes and raw little-endian bytes."""
    h = hashlib.blake2b(digest_size=16)
    for name, arr in arrays:
        h.update(name.encode())
        h.update(_dtype_name(arr.dtype).encode())
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def write_store(
    path: Union[str, Path],
    columns: Sequence[Tuple[str, np.ndarray]],
    meta: Optional[Dict[str, object]] = None,
) -> str:
    """Write ``columns`` (name, 1-D array pairs) to ``path``; returns digest.

    All columns must share one length (rows of one logical table).  The
    digest lands in the header so readers get it in O(1).
    """
    if not columns:
        raise TraceError("a trace store needs at least one column")
    arrays: List[Tuple[str, np.ndarray]] = []
    n = -1
    for name, arr in columns:
        arr = np.asarray(arr)
        if arr.ndim != 1:
            raise TraceError(f"column {name!r} must be one-dimensional")
        if n < 0:
            n = int(arr.size)
        elif int(arr.size) != n:
            raise TraceError(
                f"column {name!r} has {arr.size} rows, expected {n}")
        arrays.append((name, np.ascontiguousarray(
            arr, dtype=_DTYPES[_dtype_name(arr.dtype)])))
    digest = _content_digest(arrays)

    def _directory(base: int) -> List[Dict[str, object]]:
        entries = []
        off = base
        for name, arr in arrays:
            off += _pad(off)
            entries.append({"name": name, "dtype": _dtype_name(arr.dtype),
                            "offset": off, "n": int(arr.size)})
            off += arr.nbytes
        return entries

    # Header length depends on the offsets, which depend on header length.
    # Both only grow with ``base``, so iterating from the smallest base
    # reaches the fixpoint, however many 64-byte boundaries the header's
    # offset digits push it across; the columns go where that header says.
    meta = dict(meta or {})
    base = len(STORE_MAGIC) + 4
    while True:
        entries = _directory(base)
        header = json.dumps({
            "version": STORE_VERSION,
            "n": n,
            "digest": digest,
            "columns": entries,
            "meta": meta,
        }, sort_keys=True).encode()
        data_base = len(STORE_MAGIC) + 4 + len(header)
        data_base += _pad(data_base)
        if base == data_base:
            break
        base = data_base

    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as fh:
        fh.write(STORE_MAGIC)
        fh.write(len(header).to_bytes(4, "little"))
        fh.write(header)
        pos = len(STORE_MAGIC) + 4 + len(header)
        for entry, (_, arr) in zip(entries, arrays):
            fh.write(b"\0" * (entry["offset"] - pos))
            fh.write(arr.tobytes())
            pos = entry["offset"] + arr.nbytes
    tmp.replace(path)
    return digest


def _parse_header(path: Path, raw: bytes) -> Dict[str, object]:
    if len(raw) < len(STORE_MAGIC) + 4:
        raise TraceError(f"trace store {path} is truncated (no header)")
    if raw[: len(STORE_MAGIC)] != STORE_MAGIC:
        raise TraceError(f"{path} is not a trace store (bad magic)")
    hlen = int.from_bytes(raw[len(STORE_MAGIC): len(STORE_MAGIC) + 4],
                          "little")
    body = raw[len(STORE_MAGIC) + 4: len(STORE_MAGIC) + 4 + hlen]
    if len(body) < hlen:
        raise TraceError(f"trace store {path} is truncated (header)")
    try:
        header = json.loads(body.decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise TraceError(f"trace store {path} has a corrupt header: {exc}")
    if not isinstance(header, dict):
        raise TraceError(f"trace store {path} has a corrupt header")
    version = header.get("version")
    if version != STORE_VERSION:
        raise TraceError(
            f"trace store {path} has format version {version!r}; "
            f"this reader supports version {STORE_VERSION} — regenerate it")
    return header


def open_store(path: Union[str, Path]) -> TraceStore:
    """Open a store as read-only memmap views (O(1), zero-copy)."""
    path = Path(path)
    if not path.exists():
        raise TraceError(f"trace store {path} does not exist")
    size = path.stat().st_size
    with open(path, "rb") as fh:
        raw = fh.read(min(size, len(STORE_MAGIC) + 4))
        if len(raw) >= len(STORE_MAGIC) + 4:
            hlen = int.from_bytes(
                raw[len(STORE_MAGIC):], "little")
            raw += fh.read(hlen)
    header = _parse_header(path, raw)
    try:
        n = int(header["n"])
        digest = str(header["digest"])
        meta = dict(header["meta"])
        entries = list(header["columns"])
    except (KeyError, TypeError, ValueError) as exc:
        raise TraceError(f"trace store {path} has a corrupt header: {exc}")
    specs = []
    for entry in entries:
        try:
            spec = ColumnSpec(str(entry["name"]), str(entry["dtype"]),
                              int(entry["offset"]), int(entry["n"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise TraceError(
                f"trace store {path} has a corrupt column entry: {exc}")
        if spec.dtype not in _DTYPES:
            raise TraceError(
                f"trace store {path} column {spec.name!r} has unsupported "
                f"dtype {spec.dtype!r}")
        specs.append(spec)
    mm = np.memmap(path, dtype=np.uint8, mode="r")
    columns: Dict[str, np.ndarray] = {}
    taken = len(raw)  # the header's end (_parse_header checked it is whole)
    for spec in sorted(specs, key=lambda s: s.offset):
        end = spec.offset + spec.nbytes
        if spec.offset < taken:
            raise TraceError(
                f"trace store {path} column {spec.name!r} starts at byte "
                f"{spec.offset}, inside the header or another column "
                f"(which end at byte {taken})")
        if end > size:
            raise TraceError(
                f"trace store {path} is truncated: column {spec.name!r} "
                f"needs bytes [{spec.offset}, {end}) but the file has {size}")
        columns[spec.name] = mm[spec.offset:end].view(
            _DTYPES[spec.dtype])
        taken = end
    return TraceStore(path=path, version=STORE_VERSION, n=n,
                      digest=digest, meta=meta, columns=columns)


# -------------------------------------------------------- program packing
#
# A whole ProgramTrace packs into one store: per-thread columns are
# concatenated and the header's meta records each thread's (offset, length)
# row span plus its instruction weights.  A worker therefore receives the
# file's path and reconstructs zero-copy ThreadTrace views locally instead
# of unpickling arrays.


def save_program(program: ProgramTrace, path: Union[str, Path]) -> str:
    """Persist a :class:`~repro.trace.access.ProgramTrace`; returns digest."""
    spans = []
    off = 0
    for t in program.threads:
        spans.append({
            "offset": off,
            "length": int(t.n_accesses),
            "instr_per_access": float(t.instr_per_access),
            "extra_instructions": int(t.extra_instructions),
        })
        off += int(t.n_accesses)
    addrs = (np.concatenate([t.addrs for t in program.threads])
             if off else np.empty(0, np.int64))
    is_write = (np.concatenate([t.is_write for t in program.threads])
                if off else np.empty(0, bool))
    meta = {
        "kind": "program",
        "name": program.name,
        "threads": spans,
        "meta": dict(program.meta),
    }
    return write_store(path, [
        ("addr", addrs.astype(np.int64, copy=False)),
        ("is_write", is_write.astype(np.uint8, copy=False)),
    ], meta=meta)


def open_program(path: Union[str, Path]) -> ProgramTrace:
    """Open a program store as a ProgramTrace of zero-copy thread views."""
    return _program(open_store(path))


def _program(store: TraceStore) -> ProgramTrace:
    path = store.path
    meta = store.meta
    if meta.get("kind") != "program":
        raise TraceError(
            f"trace store {path} is not a program store "
            f"(kind={meta.get('kind')!r})")
    addrs = store["addr"]
    is_write = store["is_write"].view(np.bool_)
    try:
        spans = list(meta["threads"])
    except (KeyError, TypeError):
        raise TraceError(f"trace store {path} has no thread directory")
    threads = []
    for i, span in enumerate(spans):
        try:
            lo = int(span["offset"])
            ln = int(span["length"])
            ipa = float(span["instr_per_access"])
            extra = int(span["extra_instructions"])
        except (KeyError, TypeError, ValueError) as exc:
            raise TraceError(
                f"trace store {path} thread {i} span is corrupt: {exc}")
        if lo < 0 or lo + ln > store.n:
            raise TraceError(
                f"trace store {path} thread {i} span [{lo}, {lo + ln}) "
                f"exceeds the store's {store.n} rows")
        threads.append(ThreadTrace(
            addrs[lo:lo + ln], is_write[lo:lo + ln],
            instr_per_access=ipa, extra_instructions=extra))
    prog = ProgramTrace(threads, name=str(meta.get("name", "anonymous")),
                        meta=dict(meta.get("meta") or {}))
    prog.meta["store_digest"] = store.digest
    return prog


# ------------------------------------------------------ the stored target


@dataclass(frozen=True)
class StoreCase:
    """One program store as a case of :data:`STORED`: its path and the
    content digest its header held when the case was made."""

    path: str
    digest: str

    def run_id(self) -> str:
        return f"store-{self.digest}"


class _StoredTraces:
    """Program stores as a target of ``Lab.simulate``/``measure``,
    ``PipelineContext.shadow_report(s)`` and ``ExecutionEngine.prefetch``.

    Cache keys are ``(STORE_VERSION, digest)``: renamed or copied files
    share one entry, a file with other bytes misses whatever its name, and
    no result of an older format revision is served.
    """

    name = "store"

    def case(self, path: Union[str, Path]) -> StoreCase:
        """The case of the program store at ``path`` (reads its header)."""
        return StoreCase(str(path), open_store(path).digest)

    def trace(self, case: StoreCase) -> ProgramTrace:
        store = open_store(case.path)
        if store.digest != case.digest:
            raise TraceError(
                f"trace store {case.path} has digest {store.digest}, not "
                f"the {case.digest} its case was made from")
        return _program(store)

    def cache_key(self, case: StoreCase) -> Tuple:
        return (STORE_VERSION, case.digest)


#: The stored-trace target; :func:`repro.parallel.resolve_target` resolves
#: its name, so case tasks open the store in the worker.
STORED = _StoredTraces()
