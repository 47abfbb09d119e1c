"""Wind-Bell Index (Qiu et al., ICDE 2023) -- simplified re-implementation.

WBI combines a K x K adjacency matrix of buckets with hanging adjacency
lists: an edge ``⟨u, v⟩`` is hashed by several independent hash-function
pairs to candidate matrix buckets ``(h_i(u), g_i(v))``, and the edge is
appended to the shortest of the candidate hanging lists (the "wind bells").
Edge queries probe every candidate bucket and scan its list; successor
queries must sweep an entire matrix row per hash function, touching many
buckets whose lists mostly contain unrelated edges -- exactly the redundancy
the paper blames for WBI's slow successor-driven analytics.

Memory is dominated by the K^2 bucket headers plus one list node per edge.
"""

from __future__ import annotations

from typing import Iterator

from ..interfaces import DynamicGraphStore
from ..memmodel.layout import ID_BYTES, POINTER_BYTES, WORD_BYTES
from ..core.hashing import HashFamily


class WindBellIndex(DynamicGraphStore):
    """Adjacency-matrix-of-buckets store with multi-hash shortest-list insertion.

    Args:
        matrix_size: ``K``, the number of rows/columns of the bucket matrix.
        num_hashes: Number of independent (row, column) hash pairs per edge.
        seed: Seed for the hash family.
    """

    name = "WBI"

    def __init__(self, matrix_size: int = 64, num_hashes: int = 2, seed: int = 1):
        if matrix_size < 1:
            raise ValueError("matrix_size must be >= 1")
        if num_hashes < 1:
            raise ValueError("num_hashes must be >= 1")
        self.matrix_size = matrix_size
        self.num_hashes = num_hashes
        family = HashFamily("mult", seed)
        self._row_hashes = [family.make() for _ in range(num_hashes)]
        self._col_hashes = [family.make() for _ in range(num_hashes)]
        self._buckets: list[list[tuple[int, int]]] = [
            [] for _ in range(matrix_size * matrix_size)
        ]
        self._num_edges = 0
        self.accesses = 0

    # ------------------------------------------------------------------ #
    # Hashing helpers
    # ------------------------------------------------------------------ #

    def _candidate_buckets(self, u: int, v: int) -> list[int]:
        """Flat indices of every candidate matrix bucket for edge ``⟨u, v⟩``."""
        candidates = []
        for row_hash, col_hash in zip(self._row_hashes, self._col_hashes):
            row = row_hash(u) % self.matrix_size
            col = col_hash(v) % self.matrix_size
            candidates.append(row * self.matrix_size + col)
        return candidates

    def _row_buckets(self, u: int) -> Iterator[int]:
        """Flat indices of every bucket a successor query for ``u`` must sweep."""
        for row_hash in self._row_hashes:
            row = row_hash(u) % self.matrix_size
            start = row * self.matrix_size
            yield from range(start, start + self.matrix_size)

    # ------------------------------------------------------------------ #
    # DynamicGraphStore API
    # ------------------------------------------------------------------ #

    def insert_edge(self, u: int, v: int) -> bool:
        candidates = self._candidate_buckets(u, v)
        for index in candidates:
            # Bucket header plus every hanging list node scanned for duplicates.
            self.accesses += 1 + len(self._buckets[index])
            if (u, v) in self._buckets[index]:
                return False
        shortest = min(candidates, key=lambda index: len(self._buckets[index]))
        self._buckets[shortest].append((u, v))
        self._num_edges += 1
        self.accesses += 1
        return True

    def has_edge(self, u: int, v: int) -> bool:
        for index in self._candidate_buckets(u, v):
            bucket = self._buckets[index]
            self.accesses += 1 + len(bucket)
            if (u, v) in bucket:
                return True
        return False

    def delete_edge(self, u: int, v: int) -> bool:
        for index in self._candidate_buckets(u, v):
            bucket = self._buckets[index]
            self.accesses += 1 + len(bucket)
            if (u, v) in bucket:
                bucket.remove((u, v))
                self._num_edges -= 1
                return True
        return False

    def successors(self, u: int) -> list[int]:
        result: list[int] = []
        seen: set[int] = set()
        for index in self._row_buckets(u):
            bucket = self._buckets[index]
            # Every bucket of the row is touched, plus every (mostly
            # unrelated) edge hanging off it -- WBI's redundancy.
            self.accesses += 1 + len(bucket)
            for source, v in bucket:
                if source == u and v not in seen:
                    seen.add(v)
                    result.append(v)
        return result

    def edges(self) -> Iterator[tuple[int, int]]:
        seen: set[tuple[int, int]] = set()
        for bucket in self._buckets:
            for edge in bucket:
                if edge not in seen:
                    seen.add(edge)
                    yield edge

    @property
    def num_edges(self) -> int:
        return self._num_edges

    # ------------------------------------------------------------------ #
    # Memory model
    # ------------------------------------------------------------------ #

    def memory_bytes(self) -> int:
        """K^2 bucket headers plus one linked node per stored edge."""
        header_bytes = self.matrix_size * self.matrix_size * (POINTER_BYTES + WORD_BYTES)
        edge_bytes = self._num_edges * (2 * ID_BYTES + POINTER_BYTES)
        return header_bytes + edge_bytes
