"""The DENYLIST optimisation (Section III-A2).

CuckooGraph equips its cuckoo tables with two bounded vectors that absorb the
items an insertion could not place within ``T`` kick-outs:

* the **S-DL** records complete graph items, i.e. ``⟨u, v⟩`` pairs (plus the
  payload attached to ``v`` in the weighted variants), for values that failed
  to enter an S-CHT;
* the **L-DL** records whole L-CHT cells -- the node ``u`` together with its
  Part 2 -- so that a node evicted out of the L-CHT keeps its S-CHT chain
  attached and nothing needs to be copied or moved.

Whenever a chain expands, the entries that belong to it are drained back into
the freshly grown tables.  Both vectors have a configurable capacity; the
paper's analysis assumes they never fill up, and the implementation raises
:class:`~repro.core.errors.CapacityError` if that assumption is violated.
"""

from __future__ import annotations

from typing import Iterator, Optional

from .counters import Counters
from .errors import CapacityError


class SmallDenylist:
    """Bounded vector of ``⟨u, v⟩ -> payload`` entries (the S-DL).

    Entries are keyed by the full edge so that membership queries (Step 2 of
    the Query operation) are a single probe, mirroring the fixed-size vector
    scan of the paper's implementation.  A per-source index beside the entry
    dict answers "what is parked for ``u``" without a scan; it keeps each
    source's destinations in parking order, the order a scan would meet them.
    """

    __slots__ = ("capacity", "_entries", "_by_source", "_counters")

    def __init__(self, capacity: int, counters: Optional[Counters] = None):
        self.capacity = capacity
        self._entries: dict[tuple[int, int], object] = {}
        self._by_source: dict[int, dict[int, None]] = {}
        self._counters = counters if counters is not None else Counters()

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def is_full(self) -> bool:
        return len(self._entries) >= self.capacity

    def add(self, u: int, v: int, payload=None) -> None:
        """Park the edge ``⟨u, v⟩`` (with its payload) in the denylist."""
        if (u, v) not in self._entries and self.is_full:
            raise CapacityError(
                f"S-DL overflow: capacity {self.capacity} exhausted while parking "
                f"edge ({u}, {v}); increase small_denylist_capacity"
            )
        self._entries[(u, v)] = payload
        self._by_source.setdefault(u, {})[v] = None

    def contains(self, u: int, v: int) -> bool:
        """Whether ``⟨u, v⟩`` is parked here."""
        found = (u, v) in self._entries
        if found:
            self._counters.denylist_hits += 1
        return found

    def get(self, u: int, v: int, default=None):
        """Return the payload parked for ``⟨u, v⟩`` or ``default``."""
        return self._entries.get((u, v), default)

    def set(self, u: int, v: int, payload) -> None:
        """Update the payload of an already-parked edge."""
        self._entries[(u, v)] = payload

    def remove(self, u: int, v: int) -> bool:
        """Remove ``⟨u, v⟩``; return ``True`` if it was present."""
        if self._entries.pop((u, v), _MISSING) is _MISSING:
            return False
        parked = self._by_source[u]
        del parked[v]
        if not parked:
            del self._by_source[u]
        return True

    def drain_for_source(self, u: int) -> list[tuple[int, object]]:
        """Remove and return every ``(v, payload)`` parked for source node ``u``.

        This implements the expansion hook: "we insert those v in S-DL whose u
        exactly match the u present in the current S-CHT into the new S-CHT".
        """
        pop = self._entries.pop
        return [(v, pop((u, v))) for v in self._by_source.pop(u, ())]

    def successors_of(self, u: int) -> list[tuple[int, object]]:
        """Return (without removing) every ``(v, payload)`` parked for ``u``."""
        entries = self._entries
        return [(v, entries[(u, v)]) for v in self._by_source.get(u, ())]

    def items(self) -> Iterator[tuple[tuple[int, int], object]]:
        """Iterate over ``((u, v), payload)`` entries."""
        yield from self._entries.items()

    def modelled_bytes(self, bytes_per_entry: int) -> int:
        """Modelled footprint: the vector is sized by its capacity high-water mark."""
        return len(self._entries) * bytes_per_entry


class LargeDenylist:
    """Bounded vector of whole L-CHT cells (the L-DL).

    Each unit has the same layout as an L-CHT cell, so an evicted node keeps
    the pointer(s) to its S-CHT chain and nothing is copied.
    """

    __slots__ = ("capacity", "_cells", "_counters")

    def __init__(self, capacity: int, counters: Optional[Counters] = None):
        self.capacity = capacity
        self._cells: dict[int, object] = {}
        self._counters = counters if counters is not None else Counters()

    def __len__(self) -> int:
        return len(self._cells)

    @property
    def is_full(self) -> bool:
        return len(self._cells) >= self.capacity

    def add(self, u: int, part2) -> None:
        """Park node ``u`` together with its Part 2."""
        if u not in self._cells and self.is_full:
            raise CapacityError(
                f"L-DL overflow: capacity {self.capacity} exhausted while parking "
                f"node {u}; increase large_denylist_capacity"
            )
        self._cells[u] = part2

    def contains(self, u: int) -> bool:
        """Whether node ``u`` is parked here."""
        found = u in self._cells
        if found:
            self._counters.denylist_hits += 1
        return found

    def get(self, u: int, default=None):
        """Return the Part 2 parked for ``u`` or ``default``."""
        return self._cells.get(u, default)

    def remove(self, u: int) -> bool:
        """Remove node ``u``; return ``True`` if it was present."""
        return self._cells.pop(u, _MISSING) is not _MISSING

    def drain(self) -> list[tuple[int, object]]:
        """Remove and return every parked ``(u, part2)`` cell."""
        drained = list(self._cells.items())
        self._cells.clear()
        return drained

    def items(self) -> Iterator[tuple[int, object]]:
        """Iterate over parked ``(u, part2)`` cells."""
        yield from self._cells.items()

    def keys(self) -> Iterator[int]:
        """Iterate over parked node identifiers."""
        yield from self._cells.keys()

    def modelled_bytes(self, bytes_per_cell: int) -> int:
        """Modelled footprint of the parked cells."""
        return len(self._cells) * bytes_per_cell


_MISSING = object()
