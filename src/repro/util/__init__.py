"""Shared utilities: heaps, seeded RNG streams, and table rendering.

These are deliberately small, dependency-free building blocks used across the
database engine, the ranking subsystem, and the size-l algorithms.
"""

from repro.util.heaps import BoundedTopHeap, KeyedMinHeap
from repro.util.rng import derive_rng
from repro.util.text import format_table

__all__ = [
    "BoundedTopHeap",
    "KeyedMinHeap",
    "derive_rng",
    "format_table",
]
