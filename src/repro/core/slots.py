"""Part 2 of an L-CHT cell: small slots that transform into an S-CHT chain.

Every L-CHT cell stores a node ``u`` (Part 1) and an :class:`AdjacencyPart2`
(Part 2).  Part 2 starts life as ``2R`` *small slots* holding neighbour
identifiers directly; once the node's degree exceeds the slot budget, the
small slots merge in pairs into ``R`` *large slots* holding pointers to an
S-CHT chain, and all neighbours migrate into that chain (the first
TRANSFORMATION of Section III-A1).

The extended (weighted / streaming) version stores ``⟨v, w⟩`` pairs, which
halves the number of direct slots from ``2R`` to ``R``; the multi-edge
(Neo4j-flavoured) version stores a list of edge identifiers in place of the
weight.  Both reuse this class through the ``slot_capacity`` argument and the
payload value.
"""

from __future__ import annotations

import random
from typing import Optional

from .chain import DrainSource, TableChain
from .config import CuckooGraphConfig
from .counters import Counters
from .hashing import HashFamily

#: Part 2 storage modes.
MODE_SLOTS = "slots"
MODE_CHAIN = "chain"

_MISSING = object()


class AdjacencyPart2:
    """The transformable neighbour container attached to one node.

    Args:
        config: Graph-wide parameter set.
        hash_family: Source of hash functions for S-CHTs enabled later.
        counters: Shared operation counters.
        rng: Random source shared with the rest of the graph.
        slot_capacity: Number of direct slots before the first transformation
            (``2R`` for the basic version, ``R`` for the weighted version).
        drain_source: Hook draining S-DL entries for this node after an
            S-CHT expansion.
    """

    __slots__ = (
        "_config",
        "_family",
        "_counters",
        "_rng",
        "slot_capacity",
        "drain_source",
        # ``_chain is None`` *is* small-slot mode; ``CuckooGraph`` branches on
        # it and reads ``_slots`` / ``_chain`` directly on its per-edge path.
        "_slots",
        "_chain",
    )

    def __init__(
        self,
        config: CuckooGraphConfig,
        hash_family: HashFamily,
        counters: Counters,
        rng: random.Random,
        slot_capacity: Optional[int] = None,
        drain_source: Optional[DrainSource] = None,
    ):
        self._config = config
        self._family = hash_family
        self._counters = counters
        self._rng = rng
        self.slot_capacity = (
            slot_capacity if slot_capacity is not None else config.small_slots_per_cell
        )
        self.drain_source = drain_source
        self._slots: dict[int, object] = {}
        self._chain: Optional[TableChain] = None

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        if self._chain is None:
            return len(self._slots)
        return self._chain._size

    @property
    def mode(self) -> str:
        """:data:`MODE_SLOTS` or :data:`MODE_CHAIN`."""
        return MODE_SLOTS if self._chain is None else MODE_CHAIN

    @property
    def is_transformed(self) -> bool:
        """Whether the small slots have transformed into an S-CHT chain."""
        return self._chain is not None

    @property
    def chain(self) -> Optional[TableChain]:
        """The S-CHT chain, or ``None`` while still in small-slot mode."""
        return self._chain

    def __contains__(self, v: int) -> bool:
        return self.get(v, _MISSING) is not _MISSING

    def get(self, v: int, default=None):
        """Return the payload stored for neighbour ``v`` or ``default``."""
        if self._chain is None:
            self._counters.cell_probes += len(self._slots)
            return self._slots.get(v, default)
        return self._chain.get(v, default)

    def items(self) -> list[tuple[int, object]]:
        """The ``(v, payload)`` pairs, in slot order or chain order."""
        if self._chain is None:
            return list(self._slots.items())
        return self._chain.items()

    def neighbours(self) -> list[int]:
        """The neighbour identifiers, in the order of :meth:`items`."""
        if self._chain is None:
            return list(self._slots)
        return self._chain.keys()

    # ------------------------------------------------------------------ #
    # Mutation
    # ------------------------------------------------------------------ #

    def insert(self, v: int, payload=None) -> list[tuple[int, object]]:
        """Store neighbour ``v`` (with payload), transforming if necessary.

        Returns pairs that could not be placed in the S-CHT chain within the
        kick budget; the caller parks them in the S-DL (or forces an
        expansion when the denylist is disabled).
        """
        if self._chain is None:
            if v in self._slots or len(self._slots) < self.slot_capacity:
                self._slots[v] = payload
                return []
            return self._transform_to_chain(extra=(v, payload))
        # The graph queries the edge before inserting (Insertion Step 1), so
        # the chain does not need to repeat the presence scan.
        return self._chain.insert(v, payload, assume_absent=True)

    def set(self, v: int, payload) -> bool:
        """Update the payload of an existing neighbour; return ``False`` if absent."""
        if self._chain is None:
            if v not in self._slots:
                return False
            self._slots[v] = payload
            return True
        return self._chain.update(v, payload)

    def delete(self, v: int) -> tuple[bool, list[tuple[int, object]]]:
        """Remove neighbour ``v``.

        Returns ``(deleted, leftovers)`` where ``leftovers`` are pairs
        displaced by a reverse transformation inside the chain.
        """
        if self._chain is None:
            return (self._slots.pop(v, _MISSING) is not _MISSING), []
        deleted, leftovers = self._chain.delete(v)
        if deleted and self._config.collapse_chain_to_slots:
            self._maybe_collapse()
        return deleted, leftovers

    def force_expand(self) -> list[tuple[int, object]]:
        """Expand the chain after an insertion failure (denylist-free mode)."""
        if self._chain is None:
            return self._transform_to_chain(extra=None)
        return self._chain.expand_on_failure()

    # ------------------------------------------------------------------ #
    # Transformation helpers
    # ------------------------------------------------------------------ #

    def _transform_to_chain(
        self, extra: Optional[tuple[int, object]]
    ) -> list[tuple[int, object]]:
        """Merge the small slots into large slots and open the first S-CHT."""
        chain = TableChain(
            config=self._config,
            hash_family=self._family,
            initial_length=self._config.initial_scht_length,
            counters=self._counters,
            rng=self._rng,
            drain_source=self.drain_source,
        )
        leftovers: list[tuple[int, object]] = []
        for existing_v, existing_payload in self._slots.items():
            leftovers.extend(chain.insert(existing_v, existing_payload))
        if extra is not None:
            leftovers.extend(chain.insert(extra[0], extra[1]))
        self._slots = {}
        self._chain = chain
        return leftovers

    def _maybe_collapse(self) -> None:
        """Collapse the chain back to direct slots when it has shrunk enough."""
        if self._chain is None or len(self._chain) > self.slot_capacity:
            return
        self._slots = dict(self._chain.items())
        self._chain = None

    # ------------------------------------------------------------------ #
    # Memory model
    # ------------------------------------------------------------------ #

    def chain_modelled_bytes(self, bytes_per_cell: int) -> int:
        """Modelled footprint of the S-CHT chain (zero in small-slot mode).

        The fixed Part 2 region inside the L-CHT cell (the ``2R`` small slots
        or the ``R`` large slots they merge into) is accounted for by the cell
        layout itself, not here.
        """
        if self._chain is None:
            return 0
        return self._chain.modelled_bytes(bytes_per_cell)
