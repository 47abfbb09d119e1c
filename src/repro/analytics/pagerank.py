"""PageRank (Section V-E5).

The paper builds the transition structure from successor queries against each
store and then iterates the PageRank update 100 times on the extracted
subgraph.  The kernel below mirrors that: one *batched* materialization pass
(:func:`~repro.analytics.engine.materialize_adjacency`, a single
``successors_many`` over the source nodes) builds the adjacency and, through
its universe, the node set -- the store is walked once.  The iteration then
runs on dense positions of the sorted node list, in ascending node order, so
every scheme pays the same arithmetic cost and gets the same floats -- the
difference between schemes is exactly the successor-query phase the paper
analyses.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from ..interfaces import DynamicGraphStore
from .engine import TraversalEngine, adjacency_universe, materialize_adjacency

#: Damping factor used by the standard PageRank formulation.
DEFAULT_DAMPING = 0.85
#: Iteration count used by the paper's methodology.
DEFAULT_ITERATIONS = 100


def pagerank(
    store: DynamicGraphStore,
    iterations: int = DEFAULT_ITERATIONS,
    damping: float = DEFAULT_DAMPING,
    *,
    engine: Optional[TraversalEngine] = None,
) -> dict[int, float]:
    """PageRank scores of every node in the store.

    Args:
        store: Graph to rank.
        iterations: Number of power iterations (the paper uses 100).
        damping: Damping factor ``d`` of the PageRank formulation.
        engine: Optional shared traversal engine (batch accounting).

    Returns:
        Mapping from node to score, keyed in ascending node order; scores
        sum to 1 over all nodes and depend only on the edge set.
    """
    # Successor-query phase: this is the part whose cost depends on the
    # store -- one batched materialization instead of a call per node.
    adjacency = materialize_adjacency(store, engine=engine)
    nodes = adjacency_universe(adjacency)
    rank: List[float] = []
    for rank, _ in pagerank_sweeps(nodes, adjacency, iterations, damping):
        pass
    return dict(zip(nodes, rank))


def pagerank_sweeps(
    nodes: List[int],
    adjacency: Dict[int, List[int]],
    iterations: int,
    damping: float,
) -> Iterator[Tuple[List[float], float]]:
    """The rank vector before and after each power iteration.

    Yields ``(ranks, dangling_mass)`` ``iterations + 1`` times: the uniform
    start (with mass 0.0), then each sweep's result, ``ranks[i]`` being the
    score of ``nodes[i]``.  ``nodes`` is the sorted node universe and
    ``adjacency`` the successor lists of its non-sink nodes.  Each node
    pushes ``damping * rank / out_degree`` to its targets in ascending node
    order, so a node's score is its base plus its in-neighbours' shares
    added in ascending order of the sender, then the redistributed dangling
    mass: the same floats whatever order the store keeps its nodes and
    successor lists in.  Nothing is yielded for an empty universe.
    """
    count = len(nodes)
    if not count:
        return
    position = {node: index for index, node in enumerate(nodes)}.__getitem__
    targets_of = [list(map(position, adjacency.get(node, ()))) for node in nodes]
    base = (1.0 - damping) / count
    rank = [1.0 / count] * count
    yield rank, 0.0
    for _ in range(iterations):
        following = [base] * count
        dangling_mass = 0.0
        for value, targets in zip(rank, targets_of):
            if not targets:
                dangling_mass += value
                continue
            share = damping * value / len(targets)
            for target in targets:
                following[target] += share
        if dangling_mass:
            redistributed = damping * dangling_mass / count
            following = [value + redistributed for value in following]
        rank = following
        yield rank, dangling_mass
