"""Connected components (Section V-E4).

The paper extracts the subgraph induced by the highest-total-degree nodes and
"runs the Tarjan algorithm ... and returns the connected components and their
number".  Two kernels are provided:

* :func:`strongly_connected_components` -- an iterative Tarjan SCC over the
  directed subgraph (the algorithm the paper names);
* :func:`weakly_connected_components` -- the components of the undirected
  view, built on the same union-find state (:class:`_ComponentState`) that
  :class:`~repro.analytics.incremental.AnalyticsFollower` maintains from
  the change feed.

Both return the canonical form -- members sorted ascending, components
sorted by their first (smallest) member -- so the answer is a function of
the edge set alone, equal with plain ``==`` across stores and replicas.
Both materialise the adjacency with **one** batched ``successors_many``
over the source nodes (:func:`~repro.analytics.engine.materialize_adjacency`),
take the node set from its universe -- the store is walked once, and a sink
is never probed -- and run the graph algorithm on the resulting dictionary.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set

from ..interfaces import DynamicGraphStore
from .engine import TraversalEngine, adjacency_universe, materialize_adjacency


def strongly_connected_components(
    store: DynamicGraphStore, *, engine: Optional[TraversalEngine] = None,
) -> list[list[int]]:
    """Tarjan's strongly connected components (iterative), canonical form."""
    adjacency = materialize_adjacency(store, engine=engine)
    index_of: dict[int, int] = {}
    lowlink: dict[int, int] = {}
    on_stack: set[int] = set()
    stack: list[int] = []
    components: list[list[int]] = []
    next_index = 0

    for root in adjacency_universe(adjacency):
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
            successors = adjacency.get(node, ())
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
                components.append(sorted(component))
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
    return sorted(components)


def weakly_connected_components(
    store: DynamicGraphStore, *, engine: Optional[TraversalEngine] = None,
) -> list[list[int]]:
    """Connected components of the undirected view, canonical form."""
    adjacency = materialize_adjacency(store, engine=engine)
    return _ComponentState(adjacency).components(adjacency_universe(adjacency))


class _ComponentState:
    """Weakly connected components: union on insert, bounded recompute on delete.

    Inserts are pure union-find unions (near-O(1)).  A delete can split its
    component, so the affected endpoints are *tainted* and :meth:`settle`
    rebuilds exactly the tainted components' member sets from the current
    adjacency -- every neighbour of a member is in the same (stale, hence
    superset) component, so the rebuild never needs to look outside them.
    """

    def __init__(self, adjacency: Dict[int, List[int]]):
        self._parent: Dict[int, int] = {}
        self._members: Dict[int, Set[int]] = {}
        self._tainted: Set[int] = set()
        #: Member-set sizes re-unioned by settle() (the "bounded" in
        #: bounded recompute); read by the follower's stats.
        self.nodes_recomputed = 0
        for source, targets in adjacency.items():
            self._ensure(source)
            for target in targets:
                self._ensure(target)
                self._union(source, target)

    def _ensure(self, node: int) -> None:
        if node not in self._parent:
            self._parent[node] = node
            self._members[node] = {node}

    def _find(self, node: int) -> int:
        parent = self._parent
        root = node
        while parent[root] != root:
            root = parent[root]
        while parent[node] != root:
            parent[node], node = root, parent[node]
        return root

    def _union(self, a: int, b: int) -> None:
        root_a, root_b = self._find(a), self._find(b)
        if root_a == root_b:
            return
        if len(self._members[root_a]) < len(self._members[root_b]):
            root_a, root_b = root_b, root_a
        self._parent[root_b] = root_a
        self._members[root_a].update(self._members.pop(root_b))

    @property
    def tainted(self) -> bool:
        return bool(self._tainted)

    def apply(self, source: int, added: Set[int], removed: Set[int]) -> None:
        self._ensure(source)
        for target in added:
            self._ensure(target)
            self._union(source, target)
        if removed:
            self._tainted.add(source)
            self._tainted.update(removed)

    def settle(self, adjacency: Dict[int, List[int]]) -> int:
        """Re-derive the tainted components from the current adjacency.

        Returns the number of nodes re-unioned (0 when nothing is tainted).
        Every tainted node's *stale* component is a superset of whatever it
        split into, so resetting exactly those members and re-unioning their
        current edges is a complete recompute of the affected region.
        """
        if not self._tainted:
            return 0
        pool: Set[int] = set()
        for node in self._tainted:
            if node in self._parent:
                pool.update(self._members[self._find(node)])
        self._tainted.clear()
        for node in pool:
            self._parent[node] = node
            self._members[node] = {node}
        for source in pool:
            for target in adjacency.get(source, ()):
                self._union(source, target)
        self.nodes_recomputed += len(pool)
        return len(pool)

    def components(self, universe: Sequence[int]) -> List[List[int]]:
        """Canonical component list restricted to ``universe`` (sorted)."""
        groups: Dict[int, List[int]] = {}
        for node in universe:
            groups.setdefault(self._find(node), []).append(node)
        return sorted(groups.values())
