"""Parity: every kernel through the engine equals the per-node path, everywhere.

The frontier-batch refactor promises that rewriting the analytics kernels on
top of :class:`~repro.analytics.engine.TraversalEngine` changed *nothing*
observable: visitation orders, levels, distances, scores and counts are
byte-identical to the historical one-``successors``-call-per-node
implementations.  This module keeps verbatim copies of those pre-refactor
implementations as references and checks every kernel against them across
the full store-contract matrix (``ALL_STORE_FACTORIES``), so a regression in
any store's ``successors_many`` or in the engine itself cannot hide behind a
single backend.

It also proves the "no per-node loops" claim directly: a spy store records
every direct ``successors`` call, and no kernel may issue any.
"""

from __future__ import annotations

import heapq
import random
from collections import deque

import pytest

from repro.analytics import (
    TraversalEngine,
    all_local_clustering_coefficients,
    betweenness_centrality,
    bfs,
    bfs_from_top_nodes,
    bfs_levels,
    count_triangles_of_node,
    dijkstra,
    ensure_engine,
    induced_edges,
    pagerank,
    shortest_path,
    strongly_connected_components,
    top_degree_nodes,
    total_degrees,
    total_directed_triangles,
    weakly_connected_components,
)
from repro.baselines import AdjacencyListGraph

from ..conftest import ALL_STORE_FACTORIES

#: Deterministic test graph: dense enough for triangles, small enough that
#: the quadratic kernels stay fast across all ten store backends.
NODE_RANGE = 70
EDGE_COUNT = 600


def build_edges() -> list[tuple[int, int]]:
    rng = random.Random(20250729)
    edges = set()
    while len(edges) < EDGE_COUNT:
        u, v = rng.randrange(NODE_RANGE), rng.randrange(NODE_RANGE)
        if u != v:
            edges.add((u, v))
    ordered = sorted(edges)
    rng.shuffle(ordered)
    return ordered


EDGES = build_edges()


@pytest.fixture(params=sorted(ALL_STORE_FACTORIES), ids=sorted(ALL_STORE_FACTORIES))
def store(request):
    built = ALL_STORE_FACTORIES[request.param]()
    for u, v in EDGES:
        built.insert_edge(u, v)
    yield built
    built.close()


# --------------------------------------------------------------------- #
# Pre-refactor reference implementations (verbatim per-node code paths)
# --------------------------------------------------------------------- #


def ref_bfs(store, source):
    order = [source]
    visited = {source}
    queue = deque([source])
    while queue:
        node = queue.popleft()
        for neighbour in store.successors(node):
            if neighbour not in visited:
                visited.add(neighbour)
                order.append(neighbour)
                queue.append(neighbour)
    return order


def ref_bfs_levels(store, source):
    levels = {source: 0}
    queue = deque([source])
    while queue:
        node = queue.popleft()
        depth = levels[node]
        for neighbour in store.successors(node):
            if neighbour not in levels:
                levels[neighbour] = depth + 1
                queue.append(neighbour)
    return levels


def ref_dijkstra(store, source, weight=None):
    weight_of = weight if weight is not None else (lambda u, v: 1.0)
    distances = {source: 0.0}
    settled = set()
    frontier = [(0.0, source)]
    while frontier:
        distance, node = heapq.heappop(frontier)
        if node in settled:
            continue
        settled.add(node)
        for neighbour in store.successors(node):
            candidate = distance + weight_of(node, neighbour)
            if candidate < distances.get(neighbour, float("inf")):
                distances[neighbour] = candidate
                heapq.heappush(frontier, (candidate, neighbour))
    return distances


def ref_shortest_path(store, source, target, weight=None):
    weight_of = weight if weight is not None else (lambda u, v: 1.0)
    distances = {source: 0.0}
    parents = {}
    settled = set()
    frontier = [(0.0, source)]
    while frontier:
        distance, node = heapq.heappop(frontier)
        if node in settled:
            continue
        if node == target:
            break
        settled.add(node)
        for neighbour in store.successors(node):
            candidate = distance + weight_of(node, neighbour)
            if candidate < distances.get(neighbour, float("inf")):
                distances[neighbour] = candidate
                parents[neighbour] = node
                heapq.heappush(frontier, (candidate, neighbour))
    if target not in distances:
        return None
    path = [target]
    while path[-1] != source:
        path.append(parents[path[-1]])
    path.reverse()
    return path


def ref_pagerank(store, iterations=100, damping=0.85):
    nodes = list(store.nodes())
    if not nodes:
        return {}
    successors = {node: store.successors(node) for node in nodes}
    count = len(nodes)
    rank = {node: 1.0 / count for node in nodes}
    for _ in range(iterations):
        next_rank = {node: (1.0 - damping) / count for node in nodes}
        dangling_mass = 0.0
        for node in nodes:
            targets = successors[node]
            if not targets:
                dangling_mass += rank[node]
                continue
            share = damping * rank[node] / len(targets)
            for target in targets:
                next_rank[target] += share
        if dangling_mass:
            redistributed = damping * dangling_mass / count
            for node in nodes:
                next_rank[node] += redistributed
        rank = next_rank
    return rank


def ref_tarjan(store):
    index_of, lowlink = {}, {}
    on_stack, stack, components = set(), [], []
    next_index = 0
    for root in list(store.nodes()):
        if root in index_of:
            continue
        work = [(root, 0)]
        while work:
            node, position = work.pop()
            if position == 0:
                index_of[node] = next_index
                lowlink[node] = next_index
                next_index += 1
                stack.append(node)
                on_stack.add(node)
            successors = store.successors(node)
            advanced = False
            for offset in range(position, len(successors)):
                neighbour = successors[offset]
                if neighbour not in index_of:
                    work.append((node, offset + 1))
                    work.append((neighbour, 0))
                    advanced = True
                    break
                if neighbour in on_stack:
                    lowlink[node] = min(lowlink[node], index_of[neighbour])
            if advanced:
                continue
            if lowlink[node] == index_of[node]:
                component = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                components.append(component)
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
    return components


def ref_count_triangles_of_node(store, node):
    triangles = 0
    for first_hop in store.successors(node):
        for second_hop in store.successors(first_hop):
            if second_hop == node:
                continue
            if store.has_edge(second_hop, node):
                triangles += 1
    return triangles


def ref_total_directed_triangles(store):
    total = 0
    for u in list(store.source_nodes()):
        for v in store.successors(u):
            for w in store.successors(v):
                if w != u and store.has_edge(w, u):
                    total += 1
    return total // 3


def ref_betweenness(store, normalized=True):
    nodes = list(store.nodes())
    centrality = {node: 0.0 for node in nodes}
    for source in nodes:
        predecessors = {node: [] for node in nodes}
        sigma = {node: 0.0 for node in nodes}
        distance = {node: -1 for node in nodes}
        sigma[source] = 1.0
        distance[source] = 0
        order = []
        queue = deque([source])
        while queue:
            node = queue.popleft()
            order.append(node)
            for neighbour in store.successors(node):
                if neighbour not in distance:
                    continue
                if distance[neighbour] < 0:
                    distance[neighbour] = distance[node] + 1
                    queue.append(neighbour)
                if distance[neighbour] == distance[node] + 1:
                    sigma[neighbour] += sigma[node]
                    predecessors[neighbour].append(node)
        dependency = {node: 0.0 for node in nodes}
        for node in reversed(order):
            for predecessor in predecessors[node]:
                if sigma[node] > 0:
                    share = (sigma[predecessor] / sigma[node]) * (1.0 + dependency[node])
                    dependency[predecessor] += share
            if node != source:
                centrality[node] += dependency[node]
    if normalized:
        count = len(nodes)
        if count > 2:
            scale = 1.0 / ((count - 1) * (count - 2))
            centrality = {node: value * scale for node, value in centrality.items()}
    return centrality


def ref_all_lcc(store):
    selected = list(store.nodes())
    neighbour_map = {node: store.successors(node) for node in selected}
    result = {}
    for node in selected:
        neighbours = neighbour_map[node]
        degree = len(neighbours)
        if degree < 2:
            result[node] = 0.0
            continue
        linked_pairs = 0
        for first in neighbours:
            for second in neighbours:
                if first != second and store.has_edge(first, second):
                    linked_pairs += 1
        result[node] = linked_pairs / (degree * (degree - 1))
    return result


def ref_total_degrees(store):
    from collections import Counter

    degrees = Counter()
    for u, v in store.edges():
        degrees[u] += 1
        degrees[v] += 1
    return dict(degrees)


def ref_top_degree_nodes(store, count):
    degrees = ref_total_degrees(store)
    ranked = sorted(degrees.items(), key=lambda item: (-item[1], item[0]))
    return [node for node, _ in ranked[:count]]


# --------------------------------------------------------------------- #
# Parity across the full store matrix
# --------------------------------------------------------------------- #


class TestTraversalParity:
    def test_bfs_order_identical(self, store):
        for source in (0, 1, 7):
            assert bfs(store, source) == ref_bfs(store, source)

    def test_bfs_levels_identical(self, store):
        for source in (0, 3):
            engine_levels = bfs_levels(store, source)
            reference = ref_bfs_levels(store, source)
            assert engine_levels == reference
            # Same discovery order, not just the same mapping.
            assert list(engine_levels) == list(reference)

    def test_dijkstra_identical(self, store):
        for source in (0, 5):
            engine_distances = dijkstra(store, source)
            reference = ref_dijkstra(store, source)
            assert engine_distances == reference
            assert list(engine_distances) == list(reference)

    def test_dijkstra_weighted_identical(self, store):
        def weight(u, v):
            return 1.0 + ((u * 31 + v) % 7)

        assert dijkstra(store, 2, weight) == ref_dijkstra(store, 2, weight)

    def test_shortest_path_identical(self, store):
        for source, target in ((0, 33), (4, 50), (1, 10**9)):
            assert shortest_path(store, source, target) == \
                ref_shortest_path(store, source, target)

    def test_pagerank_scores_byte_identical(self, store):
        engine_scores = pagerank(store, iterations=25)
        reference = ref_pagerank(store, iterations=25)
        # Exact float equality: same adjacency, same iteration order.
        assert engine_scores == reference

    def test_tarjan_components_identical(self, store):
        assert strongly_connected_components(store) == ref_tarjan(store)

    def test_weak_components_partition_identical(self, store):
        ours = sorted(sorted(group) for group in weakly_connected_components(store))
        reference_graph = AdjacencyListGraph()
        for u, v in EDGES:
            reference_graph.insert_edge(u, v)
        expected = sorted(
            sorted(group) for group in weakly_connected_components(reference_graph)
        )
        assert ours == expected

    def test_triangle_counts_identical(self, store):
        for node in (0, 2, 9):
            assert count_triangles_of_node(store, node) == \
                ref_count_triangles_of_node(store, node)

    def test_total_triangles_identical(self, store):
        assert total_directed_triangles(store) == ref_total_directed_triangles(store)

    def test_betweenness_byte_identical(self, store):
        assert betweenness_centrality(store) == ref_betweenness(store)

    def test_lcc_byte_identical(self, store):
        assert all_local_clustering_coefficients(store) == ref_all_lcc(store)

    def test_total_degrees_identical(self, store):
        assert total_degrees(store) == ref_total_degrees(store)

    def test_top_degree_nodes_identical(self, store):
        assert top_degree_nodes(store, 15) == ref_top_degree_nodes(store, 15)

    def test_bfs_from_top_nodes_identical(self, store):
        expected = [
            (root, len(ref_bfs(store, root)))
            for root in ref_top_degree_nodes(store, 4)
        ]
        assert bfs_from_top_nodes(store, root_count=4) == expected

    def test_induced_edges_same_edge_set(self, store):
        nodes = ref_top_degree_nodes(store, 25)
        selected = set(nodes)
        expected = sorted(
            (u, v) for u, v in store.edges() if u in selected and v in selected
        )
        assert sorted(induced_edges(store, nodes)) == expected


# --------------------------------------------------------------------- #
# The engine really is the only way kernels reach the store
# --------------------------------------------------------------------- #


class SpyStore(AdjacencyListGraph):
    """Counts direct ``successors`` calls; answers batches without them."""

    def __init__(self):
        super().__init__()
        self.direct_successor_calls = 0

    def successors(self, u):
        self.direct_successor_calls += 1
        return super().successors(u)

    def successors_many(self, nodes):
        fetch = super().successors  # bypasses the spy counter on purpose
        return {u: fetch(u) for u in dict.fromkeys(nodes)}


def spy_graph() -> SpyStore:
    spy = SpyStore()
    for u, v in EDGES:
        spy.insert_edge(u, v)
    spy.direct_successor_calls = 0
    return spy


#: kernel name -> callable(store) covering all eight analytics kernels.
KERNEL_DRIVERS = {
    "bfs": lambda s: bfs(s, 0),
    "bfs_levels": lambda s: bfs_levels(s, 0),
    "bfs_from_top_nodes": lambda s: bfs_from_top_nodes(s, root_count=3),
    "dijkstra": lambda s: dijkstra(s, 0),
    "shortest_path": lambda s: shortest_path(s, 0, 40),
    "pagerank": lambda s: pagerank(s, iterations=5),
    "tarjan_scc": strongly_connected_components,
    "weak_cc": weakly_connected_components,
    "triangles": lambda s: count_triangles_of_node(s, 0),
    "total_triangles": total_directed_triangles,
    "betweenness": betweenness_centrality,
    "lcc": all_local_clustering_coefficients,
    "top_degree_nodes": lambda s: top_degree_nodes(s, 10),
    "induced_edges": lambda s: induced_edges(s, list(range(30))),
}


@pytest.mark.parametrize("kernel", sorted(KERNEL_DRIVERS), ids=sorted(KERNEL_DRIVERS))
def test_kernels_never_issue_per_node_successor_calls(kernel):
    """Frontier expansion goes through ``successors_many`` exclusively."""
    spy = spy_graph()
    KERNEL_DRIVERS[kernel](spy)
    assert spy.direct_successor_calls == 0


def test_shared_engine_accumulates_batch_accounting():
    spy = spy_graph()
    engine = TraversalEngine(spy)
    bfs(spy, 0, engine=engine)
    after_bfs = engine.expand_calls
    assert after_bfs >= 1
    pagerank(spy, iterations=3, engine=engine)
    assert engine.expand_calls == after_bfs + 1  # one materialization batch
    snapshot = engine.snapshot()
    assert snapshot["batch_calls"] == engine.expand_calls + engine.probe_calls
    assert snapshot["nodes_expanded"] >= snapshot["expand_calls"]


def test_engine_rejects_mismatched_store():
    first, second = spy_graph(), spy_graph()
    engine = TraversalEngine(first)
    with pytest.raises(ValueError):
        ensure_engine(second, engine)
    assert ensure_engine(first, engine) is engine


def test_count_edges_chunking_matches_streamed_loop():
    spy = spy_graph()
    engine = TraversalEngine(spy)
    probes = [(u, v) for u, v in EDGES[:200]] + [(10**9, 1)] * 5 + EDGES[:50]
    expected = sum(spy.has_edge(u, v) for u, v in probes)
    # Tiny chunks, default chunks and a generator input all agree, and
    # duplicates count per occurrence.
    assert engine.count_edges(probes, chunk_size=7) == expected
    assert engine.count_edges(iter(probes)) == expected
    assert engine.count_edges([]) == 0
    calls_before = engine.probe_calls
    engine.count_edges(probes, chunk_size=100)
    assert engine.probe_calls - calls_before == -(-len(probes) // 100)


def test_expand_contract_on_unknown_and_duplicate_nodes():
    spy = spy_graph()
    engine = TraversalEngine(spy)
    result = engine.expand([0, 0, 10**9, 0])
    assert list(result) == [0, 10**9]
    assert result[10**9] == []
    assert result[0] == spy.successors_many([0])[0]
    assert engine.expand([]) == {} and engine.expand_calls == 1
