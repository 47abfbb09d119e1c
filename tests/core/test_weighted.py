"""Tests for the extended (streaming / weighted) CuckooGraph."""

import random
from collections import defaultdict

import pytest

from repro import WeightedCuckooGraph
from repro.interfaces import WeightedGraphStore


class TestWeights:
    def test_insert_sets_weight_one(self):
        graph = WeightedCuckooGraph()
        assert graph.insert_weighted_edge(1, 2) == 1
        assert graph.edge_weight(1, 2) == 1

    def test_duplicate_insert_increments(self):
        graph = WeightedCuckooGraph()
        graph.insert_weighted_edge(1, 2)
        assert graph.insert_weighted_edge(1, 2) == 2
        assert graph.insert_weighted_edge(1, 2, delta=5) == 7

    def test_insert_edge_returns_true_only_for_new_pairs(self):
        graph = WeightedCuckooGraph()
        assert graph.insert_edge(1, 2) is True
        assert graph.insert_edge(1, 2) is False
        assert graph.num_edges == 1

    def test_delta_must_be_positive(self):
        graph = WeightedCuckooGraph()
        with pytest.raises(ValueError):
            graph.insert_weighted_edge(1, 2, delta=0)

    def test_weight_of_absent_edge_is_zero(self):
        graph = WeightedCuckooGraph()
        assert graph.edge_weight(5, 6) == 0


class TestDeletion:
    def test_delete_decrements_until_zero(self):
        graph = WeightedCuckooGraph()
        graph.insert_weighted_edge(1, 2, delta=3)
        assert graph.delete_edge(1, 2) is False
        assert graph.edge_weight(1, 2) == 2
        assert graph.delete_edge(1, 2) is False
        assert graph.delete_edge(1, 2) is True
        assert not graph.has_edge(1, 2)
        assert graph.num_edges == 0

    def test_delete_absent_edge(self):
        graph = WeightedCuckooGraph()
        assert graph.delete_edge(1, 2) is False


class TestStreamSemantics:
    def test_matches_reference_counter_on_random_stream(self):
        rng = random.Random(99)
        graph = WeightedCuckooGraph()
        reference: dict[tuple[int, int], int] = defaultdict(int)
        for _ in range(20000):
            u, v = rng.randrange(80), rng.randrange(80)
            graph.insert_weighted_edge(u, v)
            reference[(u, v)] += 1
        assert graph.num_edges == len(reference)
        for (u, v), weight in reference.items():
            assert graph.edge_weight(u, v) == weight
        assert sum(w for _, _, w in graph.weighted_edges()) == 20000

    def test_weighted_edges_iteration(self):
        graph = WeightedCuckooGraph()
        graph.insert_weighted_edge(1, 2, delta=2)
        graph.insert_weighted_edge(1, 3)
        assert sorted(graph.weighted_edges()) == [(1, 2, 2), (1, 3, 1)]

    def test_successors_include_weighted_neighbours(self):
        graph = WeightedCuckooGraph()
        for v in range(1, 40):
            graph.insert_weighted_edge(0, v, delta=v)
        assert sorted(graph.successors(0)) == list(range(1, 40))
        assert graph.edge_weight(0, 39) == 39

    def test_high_degree_weighted_node_uses_chain(self):
        graph = WeightedCuckooGraph()
        for v in range(500):
            graph.insert_weighted_edge(7, v, delta=2)
        part2 = graph.part2_of(7)
        assert part2.is_transformed
        assert graph.edge_weight(7, 499) == 2

    def test_is_weighted_graph_store(self):
        assert isinstance(WeightedCuckooGraph(), WeightedGraphStore)

    def test_memory_model_uses_weighted_cells(self):
        weighted = WeightedCuckooGraph()
        basic_layout = weighted._layout
        assert basic_layout.weighted is True
        assert basic_layout.scht_cell_bytes > 8
