"""The extended (streaming) version of CuckooGraph with duplicate-edge support.

Section III-B customises the basic structure for streaming scenarios: each
Part 2 small slot stores a ``⟨v, w⟩`` pair instead of a bare ``v`` (halving
the direct slot count from ``2R`` to ``R``), and the operations change as
follows:

* **Insertion** of an edge that already exists increments its weight instead
  of doing nothing.
* **Query** reports the edge together with its weight.
* **Deletion** decrements the weight and removes the edge only once the
  weight reaches zero.
"""

from __future__ import annotations

from ..interfaces import DynamicGraphStore, WeightedGraphStore
from .graph import CuckooGraph


class WeightedCuckooGraph(CuckooGraph, WeightedGraphStore):
    """CuckooGraph variant that counts duplicate edges with per-edge weights.

    Example:
        >>> graph = WeightedCuckooGraph()
        >>> graph.insert_weighted_edge(1, 2)
        1
        >>> graph.insert_weighted_edge(1, 2)
        2
        >>> graph.edge_weight(1, 2)
        2
        >>> graph.delete_edge(1, 2)   # decrements to 1, edge still present
        False
        >>> graph.has_edge(1, 2)
        True
    """

    name = "WeightedCuckooGraph"

    # ------------------------------------------------------------------ #
    # Layout hooks
    # ------------------------------------------------------------------ #

    def _weighted_layout(self) -> bool:
        return True

    def _slot_capacity(self) -> int:
        # Two small slots merge to hold one ⟨v, w⟩ pair, so only R direct slots.
        return self.config.weighted_slots_per_cell

    # ------------------------------------------------------------------ #
    # Weighted operations
    # ------------------------------------------------------------------ #

    def insert_weighted_edge(self, u: int, v: int, delta: int = 1) -> int:
        """Insert ``⟨u, v⟩`` or bump its weight by ``delta``; return the new weight.

        ``delta`` defaults to 1, matching the paper's "incrementing the
        corresponding w by 1 (or other defined value)".
        """
        if delta <= 0:
            raise ValueError(f"delta must be positive, got {delta}")
        self.counters.edges_inserted += 1
        part2 = self._find_part2(u)
        if part2 is not None:
            current = part2.get(v)
            if current is not None:
                part2.set(v, current + delta)
                return current + delta
            parked = self._sdl.get(u, v)
            if parked is not None:
                self._sdl.set(u, v, parked + delta)
                return parked + delta
            self._park_small(u, part2.insert(v, delta), part2)
        else:
            parked = self._sdl.get(u, v)
            if parked is not None:
                self._sdl.set(u, v, parked + delta)
                return parked + delta
            part2 = self._new_part2(u)
            self._park_small(u, part2.insert(v, delta), part2)
            self._park_large(self._lcht.insert(u, part2))
        self._num_edges += 1
        return delta

    def insert_edge(self, u: int, v: int) -> bool:
        """Insert ``⟨u, v⟩`` with weight 1, or increment an existing weight.

        Returns ``True`` only when the edge was newly created, so that the
        :class:`~repro.interfaces.DynamicGraphStore` contract (and the
        deduplicating benchmarks built on it) keep working.
        """
        return self.insert_weighted_edge(u, v) == 1

    # ``CuckooGraph.insert_edges`` places repeats of a run itself, with no
    # weight; a weighted batch is one ``insert_edge`` per edge.
    insert_edges = DynamicGraphStore.insert_edges

    def edge_weight(self, u: int, v: int) -> int:
        """Current weight of ``⟨u, v⟩`` (0 if the edge is absent)."""
        self.counters.edges_queried += 1
        payload = self._edge_payload(u, v)
        return int(payload) if payload is not None else 0

    def delete_edge(self, u: int, v: int) -> bool:
        """Decrement the weight of ``⟨u, v⟩``; delete it once the weight hits zero.

        Returns ``True`` when the edge was actually removed from the
        structure (its weight reached zero), ``False`` otherwise -- including
        the case where only the weight was decremented.
        """
        self.counters.edges_deleted += 1
        part2 = self._find_part2(u)
        if part2 is not None:
            payload = part2.get(v)
            if payload is not None:
                if payload > 1:
                    part2.set(v, payload - 1)
                    return False
                return self._remove_located(u, v, part2)
        parked = self._sdl.get(u, v)
        if parked is None:
            return False
        if parked > 1:
            self._sdl.set(u, v, parked - 1)
            return False
        self._sdl.remove(u, v)
        self._num_edges -= 1
        if part2 is not None:
            self._remove_node_if_empty(u, part2)
        return True

    def weighted_edges(self):
        """Iterate over ``(u, v, w)`` triples."""
        for u, part2 in self._cells():
            for v, w in part2.items():
                yield (u, v, int(w))
        for (u, v), w in self._sdl.items():
            yield (u, v, int(w))

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #

    def _edge_payload(self, u: int, v: int):
        part2 = self._find_part2(u)
        if part2 is not None:
            payload = part2.get(v)
            if payload is not None:
                return payload
        return self._sdl.get(u, v)

    def _remove_located(self, u: int, v: int, part2) -> bool:
        """Remove ``v`` from an already-located Part 2 and fix up bookkeeping."""
        deleted, leftovers = part2.delete(v)
        self._park_small(u, leftovers, part2)
        if deleted:
            self._num_edges -= 1
            self._remove_node_if_empty(u, part2)
        return deleted
