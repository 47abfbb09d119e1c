"""Breadth-First Search over a dynamic graph store (Section V-E1).

The paper's BFS experiment performs a traversal from each of the
highest-total-degree nodes and returns the visited nodes in traversal order
together with their count.  The kernel only relies on the store's successor
query, which is the operation whose locality the experiment is designed to
stress.

The traversal is *level-synchronous*: each BFS level is expanded with one
batched ``successors_many`` call through the
:class:`~repro.analytics.engine.TraversalEngine`, so a sharded store answers
a whole frontier per round-trip.  Processing the frontier in discovery order
and appending each node's newly found neighbours in ascending order
reproduces the classic FIFO-queue visitation order over sorted successor
lists exactly, so the order depends on the edge set alone, not on the order
a store keeps its successor lists in.
"""

from __future__ import annotations

from typing import Optional

from ..interfaces import DynamicGraphStore
from .engine import TraversalEngine, ensure_engine


def bfs(store: DynamicGraphStore, source: int, *,
        engine: Optional[TraversalEngine] = None) -> list[int]:
    """Return the nodes reachable from ``source`` in BFS visitation order."""
    engine = ensure_engine(store, engine)
    order: list[int] = [source]
    visited: set[int] = {source}
    frontier: list[int] = [source]
    while frontier:
        adjacency = engine.expand(frontier)
        next_frontier: list[int] = []
        for node in frontier:
            start = len(next_frontier)
            for neighbour in adjacency[node]:
                if neighbour not in visited:
                    visited.add(neighbour)
                    next_frontier.append(neighbour)
            if len(next_frontier) - start > 1:
                next_frontier[start:] = sorted(next_frontier[start:])
        order += next_frontier
        frontier = next_frontier
    return order
