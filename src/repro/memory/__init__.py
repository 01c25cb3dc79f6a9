"""Simulated memory layout: line/page geometry, allocation, symbols, TLB."""

from repro.memory.allocator import BumpAllocator
from repro.memory.layout import (
    LINE_SIZE,
    PAGE_SIZE,
    ArrayLayout,
    align_up,
    line_of,
    offset_in_line,
    page_of,
    shares_line,
)
from repro.memory.symbols import Symbol, SymbolTable
from repro.memory.tlb import TLB

__all__ = [
    "LINE_SIZE",
    "PAGE_SIZE",
    "ArrayLayout",
    "align_up",
    "line_of",
    "offset_in_line",
    "page_of",
    "shares_line",
    "BumpAllocator",
    "Symbol",
    "SymbolTable",
    "TLB",
]
