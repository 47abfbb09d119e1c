"""Tests for the basic CuckooGraph public API."""

from repro import CuckooGraph, CuckooGraphConfig


class TestInsertQueryDelete:
    def test_insert_new_edge_returns_true(self):
        graph = CuckooGraph()
        assert graph.insert_edge(1, 2) is True
        assert graph.num_edges == 1

    def test_duplicate_insert_returns_false(self):
        graph = CuckooGraph()
        graph.insert_edge(1, 2)
        assert graph.insert_edge(1, 2) is False
        assert graph.num_edges == 1

    def test_has_edge_is_directional(self):
        graph = CuckooGraph()
        graph.insert_edge(1, 2)
        assert graph.has_edge(1, 2)
        assert not graph.has_edge(2, 1)

    def test_query_unknown_node(self):
        graph = CuckooGraph()
        assert not graph.has_edge(42, 43)

    def test_delete_edge(self):
        graph = CuckooGraph()
        graph.insert_edge(1, 2)
        assert graph.delete_edge(1, 2) is True
        assert graph.delete_edge(1, 2) is False
        assert not graph.has_edge(1, 2)
        assert graph.num_edges == 0

    def test_self_loop_supported(self):
        graph = CuckooGraph()
        assert graph.insert_edge(9, 9) is True
        assert graph.has_edge(9, 9)
        assert graph.successors(9) == [9]

    def test_reinsert_after_delete(self):
        graph = CuckooGraph()
        graph.insert_edge(1, 2)
        graph.delete_edge(1, 2)
        assert graph.insert_edge(1, 2) is True
        assert graph.has_edge(1, 2)


class TestNeighbourhoods:
    def test_successors_and_degree(self, small_edge_set, reference):
        graph = CuckooGraph()
        for u, v in small_edge_set:
            graph.insert_edge(u, v)
        adjacency = reference(small_edge_set)
        for u, expected in adjacency.items():
            assert sorted(graph.successors(u)) == sorted(expected)
            assert graph.out_degree(u) == len(expected)

    def test_successors_of_unknown_node_empty(self):
        assert CuckooGraph().successors(123) == []

    def test_edges_iteration_matches_inserted(self, small_edge_set):
        graph = CuckooGraph()
        for u, v in small_edge_set:
            graph.insert_edge(u, v)
        assert sorted(graph.edges()) == sorted(small_edge_set)

    def test_nodes_and_source_nodes(self, small_edge_set):
        graph = CuckooGraph()
        for u, v in small_edge_set:
            graph.insert_edge(u, v)
        sources = {u for u, _ in small_edge_set}
        everything = sources | {v for _, v in small_edge_set}
        assert set(graph.source_nodes()) == sources
        assert set(graph.nodes()) == everything
        assert graph.num_nodes == len(everything)

    def test_has_node(self):
        graph = CuckooGraph()
        graph.insert_edge(1, 2)
        assert graph.has_node(1)
        assert not graph.has_node(2)  # destination-only nodes are not sources

    def test_node_removed_when_last_edge_deleted(self):
        graph = CuckooGraph()
        graph.insert_edge(1, 2)
        graph.insert_edge(1, 3)
        graph.delete_edge(1, 2)
        assert graph.has_node(1)
        graph.delete_edge(1, 3)
        assert not graph.has_node(1)
        assert graph.num_source_nodes == 0


class TestHighDegreeAndScale:
    def test_hub_node_grows_scht_chain(self):
        graph = CuckooGraph()
        for v in range(2000):
            graph.insert_edge(0, v)
        part2 = graph.part2_of(0)
        assert part2 is not None and part2.is_transformed
        assert graph.out_degree(0) == 2000
        assert sorted(graph.successors(0)) == list(range(2000))

    def test_hub_node_shrinks_after_deletions(self):
        graph = CuckooGraph()
        for v in range(2000):
            graph.insert_edge(0, v)
        cells_before = graph.part2_of(0).chain.total_cells
        for v in range(1900):
            graph.delete_edge(0, v)
        assert graph.part2_of(0).chain.total_cells < cells_before
        assert sorted(graph.successors(0)) == list(range(1900, 2000))

    def test_lcht_expands_with_many_sources(self):
        graph = CuckooGraph(CuckooGraphConfig(initial_lcht_length=4))
        for u in range(3000):
            graph.insert_edge(u, u + 1)
        assert graph.num_source_nodes == 3000
        assert graph.lcht.num_tables >= 1
        assert graph.lcht.total_cells >= 3000
        for u in range(0, 3000, 97):
            assert graph.has_edge(u, u + 1)

    def test_interleaved_inserts_and_deletes(self, small_edge_set):
        graph = CuckooGraph()
        alive = set()
        for index, (u, v) in enumerate(small_edge_set):
            graph.insert_edge(u, v)
            alive.add((u, v))
            if index % 3 == 0:
                graph.delete_edge(u, v)
                alive.discard((u, v))
        assert graph.num_edges == len(alive)
        assert sorted(graph.edges()) == sorted(alive)


class TestDenylistBehaviour:
    def tiny_config(self, **overrides):
        return CuckooGraphConfig(
            d=1, R=1, T=2, initial_scht_length=1, initial_lcht_length=1,
            G=0.9, lam=0.4, **overrides
        )

    def test_failures_are_absorbed_by_denylists(self):
        graph = CuckooGraph(self.tiny_config())
        edges = [(u, v) for u in range(40) for v in range(4)]
        for u, v in edges:
            assert graph.insert_edge(u, v)
        for u, v in edges:
            assert graph.has_edge(u, v), (u, v)
        assert graph.num_edges == len(edges)

    def test_denylisted_edges_can_be_deleted(self):
        graph = CuckooGraph(self.tiny_config())
        edges = [(u, v) for u in range(40) for v in range(4)]
        for u, v in edges:
            graph.insert_edge(u, v)
        for u, v in edges:
            assert graph.delete_edge(u, v), (u, v)
        assert graph.num_edges == 0

    def test_denylist_free_mode_still_correct(self):
        graph = CuckooGraph(self.tiny_config(use_denylist=False))
        edges = [(u, v) for u in range(30) for v in range(3)]
        for u, v in edges:
            assert graph.insert_edge(u, v)
        for u, v in edges:
            assert graph.has_edge(u, v)


class TestIntrospection:
    def test_counters_update(self):
        graph = CuckooGraph()
        graph.insert_edge(1, 2)
        graph.has_edge(1, 2)
        graph.delete_edge(1, 2)
        assert graph.counters.edges_inserted == 1
        assert graph.counters.edges_queried == 1
        assert graph.counters.edges_deleted == 1

    def test_accesses_counter_moves_and_resets(self):
        graph = CuckooGraph()
        graph.insert_edge(1, 2)
        assert graph.accesses > 0
        graph.reset_accesses()
        assert graph.accesses == 0
        graph.has_edge(1, 2)
        assert graph.accesses > 0

    def test_accesses_survive_a_counters_reset(self):
        """``counters.reset()`` used to leave ``accesses`` negative: the base
        taken by ``reset_accesses()`` outlived the counter it was a base of."""
        graph = CuckooGraph()
        for v in range(50):
            graph.insert_edge(1, v)
        graph.reset_accesses()
        graph.has_edge(1, 2)
        graph.counters.reset()
        assert graph.accesses == 0
        before = graph.counters.bucket_probes
        graph.has_edge(1, 3)
        assert graph.accesses == graph.counters.bucket_probes - before > 0
        graph.reset_accesses()
        assert graph.accesses == 0

    def test_memory_bytes_grows_with_edges(self):
        graph = CuckooGraph()
        empty = graph.memory_bytes()
        for u in range(200):
            for v in range(8):
                graph.insert_edge(u, v)
        assert graph.memory_bytes() > empty

    def test_structure_summary_keys(self):
        graph = CuckooGraph()
        graph.insert_edge(1, 2)
        summary = graph.structure_summary()
        for key in ("num_edges", "num_source_nodes", "lcht_tables", "memory_bytes"):
            assert key in summary

    def test_insert_edges_bulk_helper(self, small_edge_set):
        graph = CuckooGraph()
        inserted = graph.insert_edges(small_edge_set)
        assert inserted == len(small_edge_set)
        assert graph.insert_edges(small_edge_set[:10]) == 0
