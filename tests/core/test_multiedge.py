"""Tests for the multi-edge (Neo4j-flavoured) CuckooGraph variant."""

from repro import MultiEdgeCuckooGraph


class TestMultiEdge:
    def test_add_and_find_edges(self):
        graph = MultiEdgeCuckooGraph()
        graph.add_edge(1, 2, edge_id=100)
        graph.add_edge(1, 2, edge_id=101)
        graph.add_edge(1, 3, edge_id=102)
        assert sorted(graph.find_edges(1, 2)) == [100, 101]
        assert list(graph.find_edges(1, 3)) == [102]
        assert list(graph.find_edges(1, 9)) == []

    def test_edge_multiplicity(self):
        graph = MultiEdgeCuckooGraph()
        for edge_id in range(5):
            graph.add_edge(4, 5, edge_id)
        assert graph.edge_multiplicity(4, 5) == 5
        assert graph.edge_multiplicity(5, 4) == 0

    def test_num_edges_counts_pairs_not_parallel_edges(self):
        graph = MultiEdgeCuckooGraph()
        graph.add_edge(1, 2, 1)
        graph.add_edge(1, 2, 2)
        graph.add_edge(2, 3, 3)
        assert graph.num_edges == 2

    def test_insert_edge_interface(self):
        graph = MultiEdgeCuckooGraph()
        assert graph.insert_edge(1, 2) is True
        assert graph.insert_edge(1, 2) is False  # pair already connected
        assert graph.edge_multiplicity(1, 2) == 2

    def test_remove_specific_edge_id(self):
        graph = MultiEdgeCuckooGraph()
        graph.add_edge(1, 2, 10)
        graph.add_edge(1, 2, 11)
        assert graph.remove_edge_id(1, 2, 10) is True
        assert list(graph.find_edges(1, 2)) == [11]
        assert graph.remove_edge_id(1, 2, 99) is False
        assert graph.remove_edge_id(1, 2, 11) is True
        assert not graph.has_edge(1, 2)

    def test_delete_edge_removes_all_parallel_edges(self):
        graph = MultiEdgeCuckooGraph()
        graph.add_edge(1, 2, 10)
        graph.add_edge(1, 2, 11)
        assert graph.delete_edge(1, 2) is True
        assert graph.edge_multiplicity(1, 2) == 0
        assert graph.delete_edge(1, 2) is False

    def test_high_fanout_pair_list(self):
        graph = MultiEdgeCuckooGraph()
        for edge_id in range(300):
            graph.add_edge(7, 8, edge_id)
        assert graph.edge_multiplicity(7, 8) == 300
        assert sorted(graph.find_edges(7, 8)) == list(range(300))

    def test_memory_accounts_for_edge_lists(self):
        sparse = MultiEdgeCuckooGraph()
        sparse.add_edge(1, 2, 1)
        heavy = MultiEdgeCuckooGraph()
        for edge_id in range(100):
            heavy.add_edge(1, 2, edge_id)
        assert heavy.memory_bytes() > sparse.memory_bytes()

    def test_successors_unique_destinations(self):
        graph = MultiEdgeCuckooGraph()
        graph.add_edge(1, 2, 1)
        graph.add_edge(1, 2, 2)
        graph.add_edge(1, 3, 3)
        assert sorted(graph.successors(1)) == [2, 3]
