"""Connected components (Section V-E4).

The paper extracts the subgraph induced by the highest-total-degree nodes and
"runs the Tarjan algorithm ... and returns the connected components and their
number".  Two kernels are provided:

* :func:`strongly_connected_components` -- an iterative Tarjan SCC over the
  directed subgraph (the algorithm the paper names);
* :func:`weakly_connected_components` -- union-find over the undirected view,
  handy for tests and for datasets where weak connectivity is the more
  natural notion.

Both materialise the adjacency with **one** batched ``successors_many`` call
through the :class:`~repro.analytics.engine.TraversalEngine` and run the
graph algorithm on the resulting dictionaries, so the store-dependent phase
is a single batch instead of a successor query per node visit (Tarjan's
iterative form previously re-queried a node's successors at every resume).
"""

from __future__ import annotations

from typing import Optional

from ..interfaces import DynamicGraphStore
from .engine import TraversalEngine, ensure_engine


def strongly_connected_components(
    store: DynamicGraphStore, *, engine: Optional[TraversalEngine] = None,
) -> list[list[int]]:
    """Tarjan's strongly connected components, implemented iteratively."""
    engine = ensure_engine(store, engine)
    index_of: dict[int, int] = {}
    lowlink: dict[int, int] = {}
    on_stack: set[int] = set()
    stack: list[int] = []
    components: list[list[int]] = []
    next_index = 0

    all_nodes = list(store.nodes())
    adjacency = engine.materialize(all_nodes)
    for root in all_nodes:
        if root in index_of:
            continue
        # Each work item is (node, iterator position over its successors).
        work: list[tuple[int, int]] = [(root, 0)]
        while work:
            node, position = work.pop()
            if position == 0:
                index_of[node] = next_index
                lowlink[node] = next_index
                next_index += 1
                stack.append(node)
                on_stack.add(node)
            successors = adjacency[node]
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
                component: list[int] = []
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


def weakly_connected_components(
    store: DynamicGraphStore, *, engine: Optional[TraversalEngine] = None,
) -> list[list[int]]:
    """Connected components of the undirected view, via union-find."""
    engine = ensure_engine(store, engine)
    parent: dict[int, int] = {}

    def find(node: int) -> int:
        root = node
        while parent[root] != root:
            root = parent[root]
        while parent[node] != root:
            parent[node], node = root, parent[node]
        return root

    def union(a: int, b: int) -> None:
        root_a, root_b = find(a), find(b)
        if root_a != root_b:
            parent[root_b] = root_a

    all_nodes = list(store.nodes())
    adjacency = engine.materialize(all_nodes)
    for node in all_nodes:
        parent.setdefault(node, node)
    for u in all_nodes:
        for v in adjacency[u]:
            union(u, v)

    groups: dict[int, list[int]] = {}
    for node in parent:
        groups.setdefault(find(node), []).append(node)
    return list(groups.values())
