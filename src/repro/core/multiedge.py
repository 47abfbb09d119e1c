"""Multi-edge CuckooGraph variant used by the Neo4j integration (Section V-G).

Neo4j allows several distinct edges between the same pair of nodes.  The
paper adapts the weighted version by replacing the weight counter in each
S-CHT small slot with a linked list of the edges sharing the same ``⟨u, v⟩``
endpoints; the query interface then returns an iterator over that list.

Here the linked list is represented as a Python list of opaque edge
identifiers (the mini-Neo4j integration stores relationship ids in it), and
``find_edges`` returns an iterator exactly as the paper describes.
"""

from __future__ import annotations

from typing import Iterator

from ..interfaces import DynamicGraphStore
from ..memmodel.layout import ALLOC_OVERHEAD_BYTES, ID_BYTES, POINTER_BYTES
from .graph import CuckooGraph


class MultiEdgeCuckooGraph(CuckooGraph):
    """CuckooGraph variant storing a list of edge identifiers per ⟨u, v⟩ pair.

    Example:
        >>> graph = MultiEdgeCuckooGraph()
        >>> graph.add_edge(1, 2, edge_id=100)
        >>> graph.add_edge(1, 2, edge_id=101)
        >>> sorted(graph.find_edges(1, 2))
        [100, 101]
        >>> graph.edge_multiplicity(1, 2)
        2
    """

    name = "MultiEdgeCuckooGraph"

    def _weighted_layout(self) -> bool:
        return True

    def _slot_capacity(self) -> int:
        return self.config.weighted_slots_per_cell

    # ------------------------------------------------------------------ #
    # Multi-edge operations
    # ------------------------------------------------------------------ #

    def add_edge(self, u: int, v: int, edge_id: int) -> None:
        """Record one more parallel edge between ``u`` and ``v``."""
        self.counters.edges_inserted += 1
        part2 = self._find_part2(u)
        if part2 is not None:
            existing = part2.get(v)
            if existing is not None:
                existing.append(edge_id)
                return
        parked = self._sdl.get(u, v)
        if parked is not None:
            parked.append(edge_id)
            return
        if part2 is None:
            part2 = self._new_part2(u)
            self._park_small(u, part2.insert(v, [edge_id]), part2)
            self._park_large(self._lcht.insert(u, part2))
        else:
            self._park_small(u, part2.insert(v, [edge_id]), part2)
        self._num_edges += 1

    def insert_edge(self, u: int, v: int) -> bool:
        """Insert a parallel edge with an auto-assigned identifier.

        Returns ``True`` when this created the first edge between the pair,
        keeping the :class:`~repro.interfaces.DynamicGraphStore` semantics.
        """
        new_pair = not self.has_edge(u, v)
        self.add_edge(u, v, edge_id=self.counters.edges_inserted)
        return new_pair

    # ``CuckooGraph.insert_edges`` places repeats of a run itself, with no
    # edge list; a multi-edge batch is one ``insert_edge`` per edge.
    insert_edges = DynamicGraphStore.insert_edges

    def find_edges(self, u: int, v: int) -> Iterator[int]:
        """Iterate over the identifiers of every edge between ``u`` and ``v``.

        This is the O(1)-to-obtain iterator the Neo4j integration exposes; an
        empty iterator means the pair is not connected.
        """
        self.counters.edges_queried += 1
        edge_ids = self._edge_list(u, v)
        return iter(edge_ids if edge_ids is not None else ())

    def edge_multiplicity(self, u: int, v: int) -> int:
        """Number of parallel edges between ``u`` and ``v``."""
        edge_ids = self._edge_list(u, v)
        return len(edge_ids) if edge_ids is not None else 0

    def remove_edge_id(self, u: int, v: int, edge_id: int) -> bool:
        """Remove one specific parallel edge; drop the pair when none remain."""
        self.counters.edges_deleted += 1
        edge_ids = self._edge_list(u, v)
        if edge_ids is None or edge_id not in edge_ids:
            return False
        edge_ids.remove(edge_id)
        if not edge_ids:
            self._delete_pair(u, v)
        return True

    def delete_edge(self, u: int, v: int) -> bool:
        """Remove the pair ``⟨u, v⟩`` and every parallel edge between them."""
        self.counters.edges_deleted += 1
        if self._edge_list(u, v) is None:
            return False
        self._delete_pair(u, v)
        return True

    # ------------------------------------------------------------------ #
    # Memory model
    # ------------------------------------------------------------------ #

    def memory_bytes(self) -> int:
        """Base structure plus the linked lists hanging off each ⟨u, v⟩ slot."""
        total = super().memory_bytes()
        for _, part2 in self._cells():
            for _, edge_ids in part2.items():
                total += ALLOC_OVERHEAD_BYTES + len(edge_ids) * (ID_BYTES + POINTER_BYTES)
        for _, edge_ids in self._sdl.items():
            total += ALLOC_OVERHEAD_BYTES + len(edge_ids) * (ID_BYTES + POINTER_BYTES)
        return total

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #

    def _edge_list(self, u: int, v: int):
        part2 = self._find_part2(u)
        if part2 is not None:
            edge_ids = part2.get(v)
            if edge_ids is not None:
                return edge_ids
        return self._sdl.get(u, v)

    def _delete_pair(self, u: int, v: int) -> None:
        part2 = self._find_part2(u)
        if part2 is not None and v in part2:
            _, leftovers = part2.delete(v)
            self._park_small(u, leftovers, part2)
        else:
            self._sdl.remove(u, v)
        self._num_edges -= 1
        if part2 is not None:
            self._remove_node_if_empty(u, part2)
