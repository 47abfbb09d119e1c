"""Scheme-specific behaviour of the baseline stores.

The cross-scheme contract is covered by ``test_store_contract``; these tests
pin down the structural behaviours that make each baseline *that* baseline --
LiveGraph's append-only log and compaction, Sortledton's block
splits, WBI's shortest-list insertion and row sweeps, Spruce's vEB index, and
the access-model accounting the throughput figures rely on.
"""

import pytest

from repro.baselines import (
    AdjacencyListGraph,
    LiveGraphStore,
    SortledtonStore,
    SpruceStore,
    WindBellIndex,
)


class TestLiveGraph:
    def test_delete_is_a_log_append(self):
        graph = LiveGraphStore()
        graph.insert_edge(1, 2)
        graph.delete_edge(1, 2)
        assert not graph.has_edge(1, 2)
        # Re-inserting after a logged delete works (newest entry wins).
        graph.insert_edge(1, 2)
        assert graph.has_edge(1, 2)

    def test_compaction_drops_dead_entries(self):
        graph = LiveGraphStore()
        for v in range(6):
            graph.insert_edge(0, v)
            graph.delete_edge(0, v)
        graph.insert_edge(0, 99)
        # 13 appends overflow the 8-entry block once; that compaction keeps
        # only the live insert, so the log holds 5 entries, not 13.
        assert len(graph._vertex_blocks[0].entries) == 5
        assert graph.successors(0) == [99]
        assert graph.num_edges == 1

    def test_memory_grows_with_block_capacity(self):
        small, large = LiveGraphStore(), LiveGraphStore()
        small.insert_edge(0, 1)
        for v in range(200):
            large.insert_edge(0, v)
        assert large.memory_bytes() > small.memory_bytes()


class TestSortledton:
    def test_blocks_split_beyond_capacity(self):
        graph = SortledtonStore()
        for v in range(200):
            graph.insert_edge(0, v)
        adjacency = graph._index[0]
        assert len(adjacency.blocks) > 1
        assert graph.successors(0) == list(range(200))  # stays globally sorted

    def test_successors_sorted(self):
        graph = SortledtonStore()
        for v in (9, 1, 5, 3):
            graph.insert_edge(0, v)
        assert graph.successors(0) == [1, 3, 5, 9]


class TestWBI:
    def test_shortest_list_insertion_balances_buckets(self):
        graph = WindBellIndex(matrix_size=4, num_hashes=2)
        for u in range(40):
            for v in range(5):
                graph.insert_edge(u, v)
        lengths = [len(bucket) for bucket in graph._buckets]
        assert max(lengths) <= 200
        assert sum(1 for length in lengths if length) > 1

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            WindBellIndex(matrix_size=0)
        with pytest.raises(ValueError):
            WindBellIndex(num_hashes=0)

    def test_successor_sweep_touches_many_buckets(self):
        graph = WindBellIndex(matrix_size=8)
        for v in range(10):
            graph.insert_edge(1, v)
        graph.accesses = 0
        graph.successors(1)
        assert graph.accesses >= graph.matrix_size  # a whole row per hash


class TestSpruce:
    def test_identifier_split_indexes_large_ids(self):
        graph = SpruceStore()
        wide_id = (7 << 32) | (3 << 16) | 5
        graph.insert_edge(wide_id, 1)
        assert graph.has_edge(wide_id, 1)
        assert list(graph.source_nodes()) == [wide_id]

    def test_index_blocks_cleaned_up_on_delete(self):
        graph = SpruceStore()
        graph.insert_edge(1, 2)
        graph.delete_edge(1, 2)
        assert graph.memory_bytes() == 0
        assert not graph.has_node(1)

    def test_sorted_neighbour_vector(self):
        graph = SpruceStore()
        for v in (9, 2, 7):
            graph.insert_edge(0, v)
        assert graph.successors(0) == [2, 7, 9]


class TestAccessModel:
    """The modelled memory-access counters behind Figures 6-8."""

    @pytest.mark.parametrize(
        "factory",
        [AdjacencyListGraph, LiveGraphStore, SortledtonStore, SpruceStore,
         lambda: WindBellIndex(matrix_size=8)],
    )
    def test_operations_increment_accesses(self, factory):
        store = factory()
        store.insert_edge(1, 2)
        after_insert = store.accesses
        store.has_edge(1, 2)
        after_query = store.accesses
        store.delete_edge(1, 2)
        assert 0 < after_insert < after_query < store.accesses

    def test_adjacency_query_cost_grows_with_degree(self):
        store = AdjacencyListGraph()
        for v in range(200):
            store.insert_edge(0, v)
        store.accesses = 0
        store.has_edge(0, 199)
        high_degree_cost = store.accesses
        store.accesses = 0
        store.has_edge(0, 0)
        assert high_degree_cost > store.accesses

    def test_reset_accesses(self):
        store = SpruceStore()
        store.insert_edge(1, 2)
        store.reset_accesses()
        assert store.accesses == 0
