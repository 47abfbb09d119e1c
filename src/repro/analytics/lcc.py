"""Local Clustering Coefficient (Section V-E7).

Following the LDBC Graphalytics definition the paper references, the local
clustering coefficient of a node is the number of edges among its neighbours
divided by the number of possible ordered neighbour pairs.  The paper's
methodology "pre-computes all neighbours of each node and runs the LCC
algorithm": the pre-computation is one batched ``successors_many``
materialization over all nodes of interest, and the pair-checking phase is
one ``has_edges`` batch per node, both through the
:class:`~repro.analytics.engine.TraversalEngine`, so the kernel cost is
governed by the same two store operations as triangle counting.
"""

from __future__ import annotations

from typing import Iterable, Optional

from ..interfaces import DynamicGraphStore
from .engine import TraversalEngine, ensure_engine


def local_clustering_coefficient(store: DynamicGraphStore, node: int,
                                 neighbours: Optional[list[int]] = None, *,
                                 engine: Optional[TraversalEngine] = None) -> float:
    """LCC of a single node over its out-neighbourhood.

    Args:
        store: Graph to analyse.
        node: Node whose coefficient is wanted.
        neighbours: Optional pre-computed neighbour list (the paper's
            methodology pre-computes these once for all nodes).
        engine: Optional shared traversal engine (batch accounting).
    """
    engine = ensure_engine(store, engine)
    if neighbours is None:
        neighbours = engine.expand([node])[node]
    degree = len(neighbours)
    if degree < 2:
        return 0.0
    # degree^2 ordered pairs: stream them through the chunked counter so a
    # hub's neighbourhood never materialises the whole probe list.
    probes = (
        (first, second)
        for first in neighbours
        for second in neighbours
        if first != second
    )
    linked_pairs = engine.count_edges(probes)
    return linked_pairs / (degree * (degree - 1))


def all_local_clustering_coefficients(
    store: DynamicGraphStore, nodes: Optional[Iterable[int]] = None, *,
    engine: Optional[TraversalEngine] = None,
) -> dict[int, float]:
    """LCC of every node (or of ``nodes`` when given).

    Pre-computes every node's neighbour list first, exactly as the paper's
    methodology describes -- one batched materialization -- then evaluates
    the coefficients.
    """
    engine = ensure_engine(store, engine)
    selected = list(nodes) if nodes is not None else list(store.nodes())
    neighbour_map = engine.expand(selected)
    return {
        node: local_clustering_coefficient(
            store, node, neighbour_map[node], engine=engine
        )
        for node in selected
    }
