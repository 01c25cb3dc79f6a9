"""Access-trace containers, pattern generators, and the interleaver."""

from repro.trace.access import ProgramTrace, ThreadTrace, empty_thread, make_thread
from repro.trace.generators import (
    interleave_streams,
    linear_indices,
    permuted_indices,
    random_indices,
    strided_indices,
    tiled_indices,
)
from repro.trace.store import (
    TraceStore,
    open_program,
    open_store,
    read_store,
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
    "linear_indices",
    "strided_indices",
    "random_indices",
    "permuted_indices",
    "tiled_indices",
    "interleave_streams",
    "DEFAULT_CHUNK",
    "DEFAULT_SEGMENT",
    "MergedTrace",
    "interleave_stream",
    "TraceStore",
    "open_program",
    "open_store",
    "read_store",
    "save_program",
    "write_store",
]
