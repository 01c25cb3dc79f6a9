"""Access-trace containers, the trace store, and the interleaver."""

from repro.trace.access import ProgramTrace, ThreadTrace, empty_thread, make_thread
from repro.trace.store import (
    TraceStore,
    open_program,
    open_store,
    save_program,
    write_store,
)
from repro.trace.streams import (
    DEFAULT_CHUNK,
    DEFAULT_SEGMENT,
    MergedTrace,
    interleave_stream,
)

__all__ = [
    "ProgramTrace",
    "ThreadTrace",
    "empty_thread",
    "make_thread",
    "DEFAULT_CHUNK",
    "DEFAULT_SEGMENT",
    "MergedTrace",
    "interleave_stream",
    "TraceStore",
    "open_program",
    "open_store",
    "save_program",
    "write_store",
]
