"""Single-Source Shortest Paths via Dijkstra's algorithm (Section V-E2).

The paper runs Dijkstra from the ten highest-total-degree nodes of the
original graph over the subgraph induced by the top-degree nodes.  The
datasets are unweighted, so every edge has unit length unless the caller
supplies a weight function; the kernel's cost is dominated by edge/successor
queries against the store, which is what the experiment compares.

Dijkstra's settle order is priority-driven, so unlike BFS it cannot be made
level-synchronous without changing its semantics.  Instead the kernel keeps
the exact textbook loop and *prefetches*: whenever a settled node's adjacency
is missing from the local cache, one batched ``successors_many`` call fetches
it together with every other unsettled node currently waiting in the heap.
The relaxation order -- and therefore every distance and parent -- is
byte-identical to the per-node version, but the store sees a few frontier-
sized batches instead of one successor query per settled node.
"""

from __future__ import annotations

import heapq
from typing import Callable, Optional

from ..interfaces import DynamicGraphStore
from .engine import TraversalEngine, ensure_engine

#: Edge-weight callback type: ``weight(u, v) -> float``.
WeightFunction = Callable[[int, int], float]


def _prefetch(engine: TraversalEngine, adjacency: dict[int, list[int]],
              node: int, frontier: list[tuple[float, int]], settled: set[int]) -> None:
    """Fetch ``node``'s successors plus those of every pending heap entry.

    One batched expansion covers the node being settled and all unsettled,
    not-yet-cached nodes in the heap -- the nodes most likely to be settled
    next -- so subsequent iterations are usually answered from the cache.
    """
    pending = dict.fromkeys([node] + [
        entry for _, entry in frontier
        if entry not in settled and entry not in adjacency
    ])
    adjacency.update(engine.expand(pending))


def dijkstra(
    store: DynamicGraphStore,
    source: int,
    weight: Optional[WeightFunction] = None,
    *,
    engine: Optional[TraversalEngine] = None,
) -> dict[int, float]:
    """Shortest-path distances from ``source`` to every reachable node."""
    engine = ensure_engine(store, engine)
    weight_of = weight if weight is not None else (lambda u, v: 1.0)
    distances: dict[int, float] = {source: 0.0}
    settled: set[int] = set()
    frontier: list[tuple[float, int]] = [(0.0, source)]
    adjacency: dict[int, list[int]] = {}
    while frontier:
        distance, node = heapq.heappop(frontier)
        if node in settled:
            continue
        settled.add(node)
        if node not in adjacency:
            _prefetch(engine, adjacency, node, frontier, settled)
        for neighbour in adjacency[node]:
            candidate = distance + weight_of(node, neighbour)
            if candidate < distances.get(neighbour, float("inf")):
                distances[neighbour] = candidate
                heapq.heappush(frontier, (candidate, neighbour))
    return distances
