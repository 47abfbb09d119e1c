"""PageRank (Section V-E5).

The paper builds the transition structure from successor queries against each
store and then iterates the PageRank update 100 times on the extracted
subgraph.  The kernel below mirrors that: one *batched* materialization pass
(a single ``successors_many`` call through the
:class:`~repro.analytics.engine.TraversalEngine`) builds the adjacency needed
for the iteration, and the iteration itself is plain Python so every scheme
pays the same arithmetic cost -- the difference between schemes is exactly
the successor-query phase the paper analyses.
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
        Mapping from node to score; scores sum to 1 over all nodes.
    """
    engine = ensure_engine(store, engine)
    nodes = list(store.nodes())
    if not nodes:
        return {}
    # Successor-query phase: this is the part whose cost depends on the
    # store -- one batched materialization instead of a call per node.
    successors = engine.materialize(nodes)

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
