"""Analytics kernels cross-checked against networkx reference implementations."""

import random

import networkx as nx
import pytest

from repro import CuckooGraph
from repro.analytics import (
    TraversalEngine,
    all_local_clustering_coefficients,
    betweenness_centrality,
    bfs,
    count_triangles_of_node,
    dijkstra,
    extract_subgraph,
    induced_edges,
    pagerank,
    strongly_connected_components,
    top_degree_nodes,
    top_degree_subgraph,
    total_degrees,
    weakly_connected_components,
)
from repro.baselines import AdjacencyListGraph


@pytest.fixture(scope="module")
def random_graph():
    """A CuckooGraph, the same graph in networkx, and its edge list."""
    rng = random.Random(7)
    edges = set()
    while len(edges) < 900:
        u, v = rng.randrange(120), rng.randrange(120)
        if u != v:
            edges.add((u, v))
    store = CuckooGraph()
    reference = nx.DiGraph()
    for u, v in edges:
        store.insert_edge(u, v)
        reference.add_edge(u, v)
    return store, reference, sorted(edges)


class TestBFS:
    def test_bfs_visits_reachable_set(self, random_graph):
        store, reference, _ = random_graph
        source = next(iter(reference.nodes))
        expected = {source} | nx.descendants(reference, source)
        assert set(bfs(store, source)) == expected

    def test_bfs_order_starts_at_source_and_has_no_duplicates(self, random_graph):
        store, _, _ = random_graph
        order = bfs(store, 0)
        assert order[0] == 0
        assert len(order) == len(set(order))

    def test_bfs_visits_nodes_level_by_level(self, random_graph):
        store, reference, _ = random_graph
        source = next(iter(reference.nodes))
        levels = nx.single_source_shortest_path_length(reference, source)
        order = bfs(store, source)
        assert set(order) == set(levels)
        depths = [levels[node] for node in order]
        assert depths == sorted(depths)

    def test_bfs_from_top_degree_roots_on_one_engine(self, random_graph):
        store, reference, _ = random_graph
        engine = TraversalEngine(store)
        roots = top_degree_nodes(store, 3, engine=engine)
        for root in roots:
            reached = bfs(store, root, engine=engine)
            assert len(reached) == 1 + len(nx.descendants(reference, root))


class TestSSSP:
    def test_dijkstra_matches_networkx(self, random_graph):
        store, reference, _ = random_graph
        source = next(iter(reference.nodes))
        expected = nx.single_source_shortest_path_length(reference, source)
        assert dijkstra(store, source) == {node: float(dist) for node, dist in expected.items()}

    def test_dijkstra_with_weights(self):
        store = CuckooGraph()
        store.insert_edge(1, 2)
        store.insert_edge(2, 3)
        store.insert_edge(1, 3)
        weights = {(1, 2): 1.0, (2, 3): 1.0, (1, 3): 5.0}
        distances = dijkstra(store, 1, weight=lambda u, v: weights[(u, v)])
        assert distances[3] == 2.0

    def test_dijkstra_omits_unreachable_nodes(self):
        store = CuckooGraph()
        store.insert_edge(1, 2)
        store.insert_edge(3, 4)
        assert dijkstra(store, 1) == {1: 0.0, 2: 1.0}

    def test_dijkstra_from_top_degree_sources_on_one_engine(self, random_graph):
        store, reference, _ = random_graph
        engine = TraversalEngine(store)
        for source in top_degree_nodes(store, 3, engine=engine):
            expected = nx.single_source_shortest_path_length(reference, source)
            assert dijkstra(store, source, engine=engine) == {
                node: float(dist) for node, dist in expected.items()
            }


class TestTrianglesAndComponents:
    def test_count_triangles_of_node_follows_methodology(self):
        store = CuckooGraph()
        for u, v in [(1, 2), (2, 3), (3, 1), (1, 4)]:
            store.insert_edge(u, v)
        assert count_triangles_of_node(store, 1) == 1
        assert count_triangles_of_node(store, 4) == 0

    def test_count_triangles_of_node_matches_networkx(self, random_graph):
        store, reference, _ = random_graph
        for node in top_degree_nodes(store, 10):
            expected = sum(
                1
                for first in reference.successors(node)
                for second in reference.successors(first)
                if second != node and reference.has_edge(second, node)
            )
            assert count_triangles_of_node(store, node) == expected

    def test_triangles_of_every_node_count_each_cycle_three_times(self, random_graph):
        store, reference, _ = random_graph
        directed_cycles = sum(
            1
            for u, v in reference.edges
            for w in reference.successors(v)
            if w != u and reference.has_edge(w, u)
        ) // 3
        engine = TraversalEngine(store)
        assert sum(
            count_triangles_of_node(store, node, engine=engine) for node in reference.nodes
        ) == 3 * directed_cycles

    def test_scc_matches_networkx(self, random_graph):
        store, reference, _ = random_graph
        ours = sorted(sorted(component) for component in strongly_connected_components(store))
        expected = sorted(sorted(component) for component in nx.strongly_connected_components(reference))
        assert ours == expected

    def test_wcc_matches_networkx(self, random_graph):
        store, reference, _ = random_graph
        ours = sorted(sorted(component) for component in weakly_connected_components(store))
        expected = sorted(sorted(component) for component in nx.weakly_connected_components(reference))
        assert ours == expected

    def test_count_components(self, random_graph):
        store, reference, _ = random_graph
        assert len(strongly_connected_components(store)) == \
            nx.number_strongly_connected_components(reference)
        assert len(weakly_connected_components(store)) == \
            nx.number_weakly_connected_components(reference)


class TestPageRankBetweennessLCC:
    def test_pagerank_close_to_networkx(self, random_graph):
        store, reference, _ = random_graph
        ours = pagerank(store, iterations=100)
        expected = nx.pagerank(reference, alpha=0.85, max_iter=200, tol=1e-10)
        assert set(ours) == set(expected)
        for node, score in expected.items():
            assert ours[node] == pytest.approx(score, abs=5e-3)

    def test_pagerank_scores_sum_to_one(self, random_graph):
        store, _, _ = random_graph
        assert sum(pagerank(store, iterations=50).values()) == pytest.approx(1.0, abs=1e-6)

    def test_betweenness_close_to_networkx(self, random_graph):
        store, reference, _ = random_graph
        ours = betweenness_centrality(store)
        expected = nx.betweenness_centrality(reference, normalized=True)
        for node, score in expected.items():
            assert ours[node] == pytest.approx(score, abs=1e-6)

    def test_lcc_on_a_known_graph(self):
        store = CuckooGraph()
        # Node 1 points to 2, 3; edge 2->3 closes one of the two ordered pairs.
        for u, v in [(1, 2), (1, 3), (2, 3)]:
            store.insert_edge(u, v)
        coefficients = all_local_clustering_coefficients(store)
        assert coefficients[1] == pytest.approx(0.5)
        assert coefficients[2] == 0.0

    def test_lcc_matches_networkx(self, random_graph):
        store, reference, _ = random_graph
        # Linked ordered pairs among a node's successors over d * (d - 1).
        expected = {}
        for node in reference.nodes:
            neighbours = list(reference.successors(node))
            degree = len(neighbours)
            if degree < 2:
                expected[node] = 0.0
                continue
            linked = sum(
                1
                for first in neighbours
                for second in neighbours
                if first != second and reference.has_edge(first, second)
            )
            expected[node] = linked / (degree * (degree - 1))
        ours = all_local_clustering_coefficients(store)
        assert set(ours) == set(expected)
        for node, value in expected.items():
            assert ours[node] == pytest.approx(value)
            assert 0.0 <= ours[node] <= 1.0


class TestSubgraph:
    def test_total_degrees(self, random_graph):
        store, reference, _ = random_graph
        degrees = total_degrees(store)
        for node in reference.nodes:
            assert degrees[node] == reference.in_degree(node) + reference.out_degree(node)

    def test_top_degree_nodes_ordering(self, random_graph):
        store, _, _ = random_graph
        degrees = total_degrees(store)
        top = top_degree_nodes(store, 10)
        ranked = sorted(degrees.values(), reverse=True)
        assert [degrees[node] for node in top] == ranked[:10]

    def test_induced_edges_and_extract(self, random_graph):
        store, reference, _ = random_graph
        nodes = top_degree_nodes(store, 30)
        selected = set(nodes)
        expected = sorted(
            (u, v) for u, v in reference.edges if u in selected and v in selected
        )
        assert sorted(induced_edges(store, nodes)) == expected
        subgraph = extract_subgraph(store, nodes)
        assert isinstance(subgraph, CuckooGraph)
        assert sorted(subgraph.edges()) == expected

    def test_extract_subgraph_with_explicit_class(self, random_graph):
        store, _, _ = random_graph
        nodes = top_degree_nodes(store, 10)
        subgraph = extract_subgraph(store, nodes, store_class=AdjacencyListGraph)
        assert isinstance(subgraph, AdjacencyListGraph)

    def test_top_degree_subgraph_wrapper(self, random_graph):
        store, _, _ = random_graph
        subgraph, nodes = top_degree_subgraph(store, 20)
        assert len(nodes) == 20
        assert subgraph.num_edges == len(induced_edges(store, nodes))
