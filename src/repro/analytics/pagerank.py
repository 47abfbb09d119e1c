"""PageRank (Section V-E5).

The paper builds the transition structure from successor queries against each
store and then iterates the PageRank update 100 times on the extracted
subgraph.  The kernel below mirrors that: one *batched* materialization pass
(a single ``successors_many`` call through the
:class:`~repro.analytics.engine.TraversalEngine`) builds the adjacency needed
for the iteration, and the iteration itself is plain Python in ascending
node order, so every scheme pays the same arithmetic cost and gets the same
floats -- the difference between schemes is exactly the successor-query
phase the paper analyses.
"""

from __future__ import annotations

from typing import Optional

from ..interfaces import DynamicGraphStore
from .engine import TraversalEngine, ensure_engine

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
    engine = ensure_engine(store, engine)
    nodes = sorted(store.nodes())
    if not nodes:
        return {}
    # Successor-query phase: this is the part whose cost depends on the
    # store -- one batched materialization instead of a call per node.
    successors = engine.materialize(nodes)
    rank = dict.fromkeys(nodes, 1.0 / len(nodes))
    for _ in range(iterations):
        rank = pagerank_sweep(nodes, successors, rank, damping)[0]
    return rank


def pagerank_sweep(
    nodes: list[int],
    successors: dict[int, list[int]],
    rank: dict[int, float],
    damping: float,
) -> tuple[dict[int, float], float]:
    """One power iteration: ``(next_rank, dangling_mass)``.

    ``nodes`` is the sorted node list and ``successors`` holds a list for
    every one of them.  Each node pushes ``damping * rank / out_degree`` to
    its targets in ascending node order, so a node's score is its base plus
    its in-neighbours' shares added in ascending order of the sender, then
    the redistributed dangling mass: the same floats whatever order the
    store keeps its nodes and successor lists in.
    """
    count = len(nodes)
    next_rank = dict.fromkeys(nodes, (1.0 - damping) / count)
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
    return next_rank, dangling_mass
