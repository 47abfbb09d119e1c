"""LiveGraph-style store (Zhu et al., PVLDB 2020) -- simplified re-implementation.

LiveGraph stores each node's edges in a *Transactional Edge Log* (TEL): an
append-only log of versioned entries living in a per-node block, with nodes
tracked by *Vertex Blocks*.  Insertions and deletions append log entries in
order; readers scan the log and keep the newest entry per neighbour.  When a
log grows past its block capacity it is compacted (dead entries dropped) and,
if still too large, the block doubles -- mirroring LiveGraph's block upgrade.

The re-implementation keeps the structural costs that matter for the paper's
comparison: O(1) amortized appends for insertion, O(degree) scans for edge
queries, and a memory footprint dominated by pre-allocated blocks plus
per-entry version metadata.
"""

from __future__ import annotations

from typing import Iterator, Optional

from ..interfaces import DynamicGraphStore
from ..memmodel.layout import ALLOC_OVERHEAD_BYTES, ID_BYTES, POINTER_BYTES, WORD_BYTES

#: Log-entry operation tags.
_OP_INSERT = 1
_OP_DELETE = 0

#: Initial TEL block capacity (log entries) for a new node.
_INITIAL_BLOCK_CAPACITY = 8


class _TransactionalEdgeLog:
    """Append-only edge log for a single source node."""

    __slots__ = ("capacity", "entries", "live_count")

    def __init__(self, capacity: int = _INITIAL_BLOCK_CAPACITY):
        self.capacity = capacity
        self.entries: list[tuple[int, int, int]] = []  # (neighbour, op, version)
        self.live_count = 0

    def append(self, neighbour: int, op: int, version: int) -> None:
        self.entries.append((neighbour, op, version))
        if len(self.entries) > self.capacity:
            self.compact()

    def compact(self) -> None:
        """Drop superseded entries; double the block if still over capacity."""
        latest: dict[int, tuple[int, int, int]] = {}
        for entry in self.entries:
            latest[entry[0]] = entry
        self.entries = sorted(
            (entry for entry in latest.values() if entry[1] == _OP_INSERT),
            key=lambda entry: entry[2],
        )
        while len(self.entries) > self.capacity:
            self.capacity *= 2

    def latest_op(self, neighbour: int) -> Optional[int]:
        """Newest operation recorded for ``neighbour`` (scan from the tail)."""
        for recorded, op, _ in reversed(self.entries):
            if recorded == neighbour:
                return op
        return None

    def live_neighbours(self) -> list[int]:
        latest: dict[int, int] = {}
        for neighbour, op, _ in self.entries:
            latest[neighbour] = op
        return [neighbour for neighbour, op in latest.items() if op == _OP_INSERT]


class LiveGraphStore(DynamicGraphStore):
    """Directed graph stored as per-node Transactional Edge Logs."""

    name = "LiveGraph"

    def __init__(self):
        self._vertex_blocks: dict[int, _TransactionalEdgeLog] = {}
        self._version = 0
        self._num_edges = 0
        self.accesses = 0

    # ------------------------------------------------------------------ #
    # Modelled memory accesses
    # ------------------------------------------------------------------ #

    def _scan_cost(self, log: _TransactionalEdgeLog) -> int:
        """Cache lines touched by a tail-to-head TEL scan (entries are contiguous)."""
        return 1 + (len(log.entries) + 3) // 4

    # ------------------------------------------------------------------ #
    # DynamicGraphStore API
    # ------------------------------------------------------------------ #

    def insert_edge(self, u: int, v: int) -> bool:
        log = self._vertex_blocks.get(u)
        self.accesses += 1  # vertex block lookup
        if log is None:
            log = _TransactionalEdgeLog()
            self._vertex_blocks[u] = log
        else:
            self.accesses += self._scan_cost(log)
            if log.latest_op(v) == _OP_INSERT:
                return False
        self._version += 1
        log.append(v, _OP_INSERT, self._version)
        self._num_edges += 1
        self.accesses += 1
        return True

    def has_edge(self, u: int, v: int) -> bool:
        log = self._vertex_blocks.get(u)
        self.accesses += 1
        if log is None:
            return False
        self.accesses += self._scan_cost(log)
        return log.latest_op(v) == _OP_INSERT

    def delete_edge(self, u: int, v: int) -> bool:
        log = self._vertex_blocks.get(u)
        self.accesses += 1
        if log is None:
            return False
        self.accesses += self._scan_cost(log)
        if log.latest_op(v) != _OP_INSERT:
            return False
        self._version += 1
        log.append(v, _OP_DELETE, self._version)
        self._num_edges -= 1
        self.accesses += 1
        return True

    def successors(self, u: int) -> list[int]:
        log = self._vertex_blocks.get(u)
        self.accesses += 1
        if log is None:
            return []
        self.accesses += self._scan_cost(log)
        return log.live_neighbours()

    def has_node(self, u: int) -> bool:
        return u in self._vertex_blocks

    def source_nodes(self) -> Iterator[int]:
        yield from self._vertex_blocks.keys()

    def edges(self) -> Iterator[tuple[int, int]]:
        for u, log in self._vertex_blocks.items():
            for v in log.live_neighbours():
                yield (u, v)

    @property
    def num_edges(self) -> int:
        return self._num_edges

    # ------------------------------------------------------------------ #
    # Memory model
    # ------------------------------------------------------------------ #

    def memory_bytes(self) -> int:
        """Vertex blocks plus pre-allocated TEL blocks with per-entry versions."""
        entry_bytes = ID_BYTES + WORD_BYTES + WORD_BYTES  # neighbour, op/flags, version
        total = 0
        for log in self._vertex_blocks.values():
            block_bytes = log.capacity * entry_bytes
            total += ALLOC_OVERHEAD_BYTES + POINTER_BYTES + ID_BYTES + block_bytes
        return total
