"""Byte-level layout model shared by every graph store.

The paper's memory figures measure the physical footprint of C++ structures
built around 8-byte node identifiers and 8-byte pointers.  This module pins
those layout constants in one place so that every scheme's ``memory_bytes``
reports a footprint derived from the same assumptions, making Figure 9's
comparison about *structure*, not about the Python runtime.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Size of a node identifier (the paper uses 8-byte identifiers).
ID_BYTES = 8
#: Size of a pointer on the evaluation platform (x86-64).
POINTER_BYTES = 8
#: Size of the weight counter in the extended (streaming) version.
WEIGHT_BYTES = 4
#: Size of a 32-bit hash value / bit-vector word where one is materialised.
WORD_BYTES = 4
#: Per-allocation bookkeeping charged to pointer-chasing structures (malloc
#: header); adjacency-list style schemes pay this for every block they chain.
ALLOC_OVERHEAD_BYTES = 16


@dataclass(frozen=True)
class CuckooLayout:
    """Derived byte costs for CuckooGraph cells, given ``d`` and ``R``.

    Attributes:
        R: Number of large slots per cell.
        weighted: Whether Part 2 slots store ⟨v, w⟩ pairs.
    """

    R: int = 3
    weighted: bool = False

    @property
    def part2_bytes(self) -> int:
        """Fixed Part 2 region: 2R small slots, or the R large slots they merge into."""
        return 2 * self.R * ID_BYTES

    @property
    def lcht_cell_bytes(self) -> int:
        """One L-CHT cell: Part 1 (u) plus the fixed Part 2 region."""
        return ID_BYTES + self.part2_bytes

    @property
    def scht_cell_bytes(self) -> int:
        """One S-CHT cell: a neighbour id, plus a weight in the extended version."""
        if self.weighted:
            return ID_BYTES + WEIGHT_BYTES
        return ID_BYTES

    @property
    def sdl_entry_bytes(self) -> int:
        """One S-DL unit: a complete ⟨u, v⟩ pair (plus weight when extended)."""
        base = 2 * ID_BYTES
        return base + (WEIGHT_BYTES if self.weighted else 0)

    @property
    def ldl_entry_bytes(self) -> int:
        """One L-DL unit: the same layout as an L-CHT cell."""
        return self.lcht_cell_bytes


def adjacency_node_bytes() -> int:
    """Per-node cost of a classic adjacency list head (id + list pointer + size)."""
    return ID_BYTES + POINTER_BYTES + WORD_BYTES


def adjacency_entry_bytes() -> int:
    """Per-edge cost of a linked adjacency entry (neighbour id + next pointer)."""
    return ID_BYTES + POINTER_BYTES
