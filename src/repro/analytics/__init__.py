"""Graph analytics kernels used by the paper's evaluation (Section V-E).

Every kernel operates on any :class:`~repro.interfaces.DynamicGraphStore`
through its successor / edge queries, so the same code path is timed for
CuckooGraph and for every baseline -- exactly the paper's methodology.

All kernels are *frontier-batched*: they drive the store through the shared
:class:`~repro.analytics.engine.TraversalEngine`, which expands whole
frontiers with one ``successors_many`` call and answers edge probes with one
``has_edges`` call, so batch-capable stores (notably the sharded front-end)
see per-shard groups instead of single-node round-trips.

Every kernel's output is a function of the edge set alone: kernels that need
an order (PageRank, BFS, betweenness) take nodes and newly found neighbours
in ascending order, and component lists come in canonical form.  So every
store, replica and :class:`AnalyticsFollower` gives the same answer, compared
with plain ``==`` (see ``tests/analytics/test_engine_parity.py``).
"""

from .betweenness import betweenness_centrality
from .bfs import bfs
from .engine import TraversalEngine, ensure_engine, materialize_adjacency
from .incremental import AnalyticsFollower, CachedTraversalEngine, MaterializationCache
from .components import strongly_connected_components, weakly_connected_components
from .lcc import all_local_clustering_coefficients, local_clustering_coefficient
from .pagerank import pagerank
from .sssp import dijkstra
from .subgraph import (
    extract_subgraph,
    induced_edges,
    top_degree_nodes,
    top_degree_subgraph,
    total_degrees,
)
from .triangles import count_triangles_of_node

__all__ = [
    "AnalyticsFollower",
    "CachedTraversalEngine",
    "MaterializationCache",
    "TraversalEngine",
    "all_local_clustering_coefficients",
    "betweenness_centrality",
    "bfs",
    "ensure_engine",
    "materialize_adjacency",
    "count_triangles_of_node",
    "dijkstra",
    "extract_subgraph",
    "induced_edges",
    "local_clustering_coefficient",
    "pagerank",
    "strongly_connected_components",
    "top_degree_nodes",
    "top_degree_subgraph",
    "total_degrees",
    "weakly_connected_components",
]
