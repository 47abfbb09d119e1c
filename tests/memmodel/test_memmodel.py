"""Tests for the memory-layout constants and the insertion cost bound (Theorem 2)."""

from repro import CuckooGraph
from repro.memmodel import (
    CuckooLayout,
    ID_BYTES,
    POINTER_BYTES,
    adjacency_entry_bytes,
    adjacency_node_bytes,
)


class TestLayout:
    def test_identifier_and_pointer_sizes(self):
        assert ID_BYTES == 8
        assert POINTER_BYTES == 8

    def test_cuckoo_layout_basic(self):
        layout = CuckooLayout(R=3, weighted=False)
        assert layout.part2_bytes == 6 * 8
        assert layout.lcht_cell_bytes == 8 + 48
        assert layout.scht_cell_bytes == 8
        assert layout.sdl_entry_bytes == 16
        assert layout.ldl_entry_bytes == layout.lcht_cell_bytes

    def test_cuckoo_layout_weighted(self):
        layout = CuckooLayout(R=3, weighted=True)
        assert layout.scht_cell_bytes == 12
        assert layout.sdl_entry_bytes == 20

    def test_adjacency_costs(self):
        assert adjacency_entry_bytes() == ID_BYTES + POINTER_BYTES
        assert adjacency_node_bytes() > ID_BYTES  # more than a bare vector entry


class TestCostModel:
    def test_theorem2_amortized_attempts_bounded(self):
        """Theorem 2 check: inserting N edges costs at most 3N placements.

        The theorem's 2.25N expectation assumes modular hashing (where a merge
        only re-inserts a fraction of the items); this implementation rehashes
        every resident on a merge, so the relevant bound is the worst-case 3N.
        """
        graph = CuckooGraph()
        edges = [(u, u * 7 + 1) for u in range(5000)]
        for u, v in edges:
            graph.insert_edge(u, v)
        assert graph.counters.insert_attempts / len(edges) < 3.0
