"""A property-graph store in the style of Neo4j, with a CuckooGraph edge index.

Section V-G describes how edge queries work in Neo4j: every node keeps an
adjacency list of the relationships incident to it, so finding the edges
between ``u`` and ``v`` means traversing ``u``'s whole list and comparing
endpoints one by one -- expensive for high-degree nodes.  The paper layers a
multi-edge CuckooGraph on top: every inserted relationship is also recorded
in the CuckooGraph, whose query interface returns an iterator over the
relationship identifiers connecting ``u`` and ``v`` in O(1).

:class:`MiniNeo4j` reproduces that setup in-process:

* nodes and relationships carry labels / types and property maps;
* each node stores an adjacency list of relationship identifiers (the
  baseline query path traverses it);
* with ``use_cuckoo_index=True`` every relationship is mirrored into a
  :class:`~repro.core.multiedge.MultiEdgeCuckooGraph` and
  :meth:`find_relationships` uses its iterator instead of the traversal.

It is a property-graph database, not a
:class:`~repro.interfaces.DynamicGraphStore`: Figure 18 and
``examples/database_acceleration.py`` drive it directly.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterator, Optional

from ..core.errors import IntegrationError
from ..core.multiedge import MultiEdgeCuckooGraph


@dataclass
class NodeRecord:
    """One stored node: identifier, labels and properties."""

    node_id: int
    labels: tuple[str, ...] = ()
    properties: dict = field(default_factory=dict)
    #: Relationship identifiers incident to this node (both directions).
    adjacency: list[int] = field(default_factory=list)


@dataclass
class RelationshipRecord:
    """One stored relationship: endpoints, type and properties."""

    rel_id: int
    start: int
    end: int
    rel_type: str = "RELATED"
    properties: dict = field(default_factory=dict)


class MiniNeo4j:
    """Minimal property-graph database with optional CuckooGraph edge index.

    Args:
        use_cuckoo_index: When ``True`` (the "Ours+Neo4j" configuration of
            Figure 18), every relationship is also inserted into a multi-edge
            CuckooGraph and edge lookups use its O(1) iterator; when ``False``
            (plain Neo4j), lookups traverse the start node's adjacency list.
    """

    def __init__(self, use_cuckoo_index: bool = False):
        self.use_cuckoo_index = use_cuckoo_index
        self._nodes: dict[int, NodeRecord] = {}
        self._relationships: dict[int, RelationshipRecord] = {}
        self._rel_ids = itertools.count(1)
        self._node_ids = itertools.count(1)
        self._index: Optional[MultiEdgeCuckooGraph] = (
            MultiEdgeCuckooGraph() if use_cuckoo_index else None
        )

    # ------------------------------------------------------------------ #
    # Node operations
    # ------------------------------------------------------------------ #

    def create_node(
        self,
        node_id: Optional[int] = None,
        labels: tuple[str, ...] = (),
        **properties,
    ) -> int:
        """Create a node (auto-assigning an id when none is given)."""
        if node_id is None:
            node_id = next(self._node_ids)
            while node_id in self._nodes:
                node_id = next(self._node_ids)
        if node_id in self._nodes:
            raise IntegrationError(f"node {node_id} already exists")
        self._nodes[node_id] = NodeRecord(node_id, tuple(labels), dict(properties))
        return node_id

    def has_node(self, node_id: int) -> bool:
        return node_id in self._nodes

    @property
    def node_count(self) -> int:
        return len(self._nodes)

    # ------------------------------------------------------------------ #
    # Relationship operations
    # ------------------------------------------------------------------ #

    def create_relationship(
        self,
        start: int,
        end: int,
        rel_type: str = "RELATED",
        **properties,
    ) -> int:
        """Create a relationship from ``start`` to ``end``; return its id.

        Missing endpoint nodes are created implicitly, which keeps bulk edge
        loading close to how the paper's insertion experiment drives Neo4j.
        """
        if start not in self._nodes:
            self.create_node(start)
        if end not in self._nodes:
            self.create_node(end)
        rel_id = next(self._rel_ids)
        record = RelationshipRecord(rel_id, start, end, rel_type, dict(properties))
        self._relationships[rel_id] = record
        self._nodes[start].adjacency.append(rel_id)
        if end != start:
            self._nodes[end].adjacency.append(rel_id)
        if self._index is not None:
            self._index.add_edge(start, end, rel_id)
        return rel_id

    @property
    def relationship_count(self) -> int:
        return len(self._relationships)

    def relationships(self) -> Iterator[RelationshipRecord]:
        """Iterate over every stored relationship record."""
        return iter(list(self._relationships.values()))

    def find_relationships(self, start: int, end: int) -> Iterator[RelationshipRecord]:
        """Every relationship from ``start`` to ``end``.

        With the CuckooGraph index this asks the multi-edge structure for the
        identifier iterator (O(1) to obtain); without it, it traverses the
        start node's adjacency list and compares endpoints one by one, which
        is the redundancy the paper measures in pure Neo4j.
        """
        if start not in self._nodes:
            return iter(())
        if self._index is not None:
            rel_ids = list(self._index.find_edges(start, end))
            return (self._relationships[rel_id] for rel_id in rel_ids)
        return (
            self._relationships[rel_id]
            for rel_id in self._nodes[start].adjacency
            if self._relationships[rel_id].start == start
            and self._relationships[rel_id].end == end
        )

    def has_relationship(self, start: int, end: int) -> bool:
        """Whether at least one relationship connects ``start`` to ``end``."""
        return next(self.find_relationships(start, end), None) is not None

    def delete_relationship(self, rel_id: int) -> bool:
        """Delete one relationship by identifier; return ``True`` if it existed."""
        record = self._relationships.pop(rel_id, None)
        if record is None:
            return False
        self._nodes[record.start].adjacency.remove(rel_id)
        if record.end != record.start:
            self._nodes[record.end].adjacency.remove(rel_id)
        if self._index is not None:
            self._index.remove_edge_id(record.start, record.end, rel_id)
        return True

    def neighbours(self, node_id: int) -> list[int]:
        """Distinct end nodes of outgoing relationships of ``node_id``."""
        if node_id not in self._nodes:
            return []
        if self._index is not None:
            return self._index.successors(node_id)
        seen: list[int] = []
        for rel_id in self._nodes[node_id].adjacency:
            record = self._relationships[rel_id]
            if record.start == node_id and record.end not in seen:
                seen.append(record.end)
        return seen

    # ------------------------------------------------------------------ #
    # Bulk loading used by the Figure 18 experiment
    # ------------------------------------------------------------------ #

    def load_edge_stream(self, edges, rel_type: str = "RELATED") -> int:
        """Create one relationship per ``(u, v)`` arrival; return how many."""
        created = 0
        for u, v in edges:
            self.create_relationship(u, v, rel_type)
            created += 1
        return created
