"""Betweenness Centrality via Brandes' algorithm (Section V-E6).

The paper runs the Brandes algorithm on the subgraph induced by the
highest-total-degree nodes.  Brandes performs one BFS (for unweighted graphs)
per source and accumulates pair dependencies on the way back, so the store is
exercised exclusively through successor queries -- here a single batched
materialization: :func:`~repro.analytics.engine.materialize_adjacency`
fetches the whole adjacency with one ``successors_many`` over the source
nodes, its universe is the node set (the store is walked once, and a sink
is never probed), and every per-source BFS runs on the resulting dictionary.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from ..interfaces import DynamicGraphStore
from .engine import TraversalEngine, adjacency_universe, materialize_adjacency


def betweenness_centrality(
    store: DynamicGraphStore, *, engine: Optional[TraversalEngine] = None,
) -> dict[int, float]:
    """Betweenness centrality of every node (Brandes, unweighted, exact).

    Every node is a source, and scores are scaled by ``1 / ((n-1)(n-2))``
    for directed graphs with ``n > 2`` nodes.

    Args:
        store: Graph to analyse.
        engine: Optional shared traversal engine (batch accounting).
    """
    # Sources in ascending order, each BFS over sorted successor lists: the
    # float sums then depend on the edge set alone, not on the store.
    fetched = materialize_adjacency(store, engine=engine)
    nodes = adjacency_universe(fetched)
    adjacency = {node: sorted(fetched.get(node, ())) for node in nodes}
    centrality = {node: 0.0 for node in nodes}

    for source in nodes:
        # Single-source shortest-path DAG (unweighted: BFS).
        predecessors: dict[int, list[int]] = {node: [] for node in nodes}
        sigma: dict[int, float] = {node: 0.0 for node in nodes}
        distance: dict[int, int] = {node: -1 for node in nodes}
        sigma[source] = 1.0
        distance[source] = 0
        order: list[int] = []
        queue: deque[int] = deque([source])
        while queue:
            node = queue.popleft()
            order.append(node)
            for neighbour in adjacency[node]:
                if distance[neighbour] < 0:
                    distance[neighbour] = distance[node] + 1
                    queue.append(neighbour)
                if distance[neighbour] == distance[node] + 1:
                    sigma[neighbour] += sigma[node]
                    predecessors[neighbour].append(node)
        # Back-propagation of dependencies.
        dependency = {node: 0.0 for node in nodes}
        for node in reversed(order):
            for predecessor in predecessors[node]:
                if sigma[node] > 0:
                    share = (sigma[predecessor] / sigma[node]) * (1.0 + dependency[node])
                    dependency[predecessor] += share
            if node != source:
                centrality[node] += dependency[node]

    count = len(nodes)
    if count > 2:
        scale = 1.0 / ((count - 1) * (count - 2))
        centrality = {node: value * scale for node, value in centrality.items()}
    return centrality
