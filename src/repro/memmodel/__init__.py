"""Memory-layout model shared by every graph store."""

from .layout import (
    ALLOC_OVERHEAD_BYTES,
    CuckooLayout,
    ID_BYTES,
    POINTER_BYTES,
    WEIGHT_BYTES,
    WORD_BYTES,
    adjacency_entry_bytes,
    adjacency_node_bytes,
)

__all__ = [
    "ALLOC_OVERHEAD_BYTES",
    "CuckooLayout",
    "ID_BYTES",
    "POINTER_BYTES",
    "WEIGHT_BYTES",
    "WORD_BYTES",
    "adjacency_entry_bytes",
    "adjacency_node_bytes",
]
