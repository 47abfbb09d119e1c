"""Triangle Counting (Section V-E3).

The paper's TC task is node-centric: "given a node, return the number of
triangles in the graph that contain that node".  Its methodology performs a
successor query to reach all 2-hop successors of the node, then issues an
edge query ``⟨2-hop successor, node⟩`` for every such candidate; the number
of successful edge queries is the triangle count.  The kernel therefore
exercises exactly the two store operations (successor query and edge query)
whose cost the experiment compares -- both in batched form: the 1-hop and
2-hop neighbourhoods are fetched with one ``successors_many`` call each, and
the closing edge queries are answered by one ``has_edges`` batch, via the
:class:`~repro.analytics.engine.TraversalEngine`.
"""

from __future__ import annotations

from typing import Optional

from ..interfaces import DynamicGraphStore
from .engine import TraversalEngine, ensure_engine


def count_triangles_of_node(store: DynamicGraphStore, node: int, *,
                            engine: Optional[TraversalEngine] = None) -> int:
    """Number of directed triangles ``node -> x -> y -> node`` through ``node``.

    Follows the paper's methodology literally -- enumerate 2-hop successors
    via successor queries, then count the edge queries
    ``⟨2-hop successor, node⟩`` that succeed -- with each phase batched: one
    expansion for the 1-hop frontier, one for the 2-hop frontier, one edge
    probe batch for the closures (duplicates probed per occurrence, exactly
    as the per-call methodology counts them).
    """
    engine = ensure_engine(store, engine)
    first_hops = engine.expand([node]).get(node, [])
    second_adjacency = engine.expand(first_hops)
    # The probe universe is quadratic in degree, so stream it through the
    # chunked counter instead of materialising it.
    probes = (
        (second_hop, node)
        for first_hop in first_hops
        for second_hop in second_adjacency[first_hop]
        if second_hop != node
    )
    return engine.count_edges(probes)
