"""A multi-cell cuckoo hash table with two bucket arrays.

This is the building block behind both the large cuckoo hash table (L-CHT)
and the small cuckoo hash tables (S-CHT) of CuckooGraph.  Structurally it
follows Section II-C and III-A1 of the paper:

* two bucket arrays ``B1`` and ``B2`` whose bucket counts are in a 2:1 ratio,
  each associated with an independent hash function;
* every bucket holds ``d`` cells;
* an insertion probes the two candidate buckets, uses an empty cell if one
  exists, and otherwise kicks a random resident to its alternate bucket,
  repeating up to ``T`` kicks before declaring failure;
* the *length* of the table is the bucket count of the larger array, and the
  loading rate is ``items / (d * total_buckets)``.

The table is a generic ``key -> value`` map: S-CHTs store neighbour ids
(value ``None`` in the basic version, a weight or edge list in the extended
versions) and the L-CHT stores whole cells (``u -> Part 2``).
"""

from __future__ import annotations

import random
from typing import Optional

from .counters import Counters
from .hashing import HashFunction


class CuckooHashTable:
    """Bounded cuckoo hash map with ``d``-cell buckets and two arrays.

    Args:
        length: Number of buckets in the larger (first) array.
        d: Cells per bucket.
        hash_pair: The two hash functions associated with the table.
        max_kicks: Maximum number of evictions before an insert fails (``T``).
        array_ratio: Divisor giving the second array's bucket count
            (2 reproduces the paper's 2:1 layout).
        counters: Shared operation counters (probes, kicks, attempts).
        rng: Random source used to pick eviction victims; pass a seeded
            instance for deterministic behaviour.
    """

    __slots__ = (
        "length",
        "d",
        "max_kicks",
        "array_ratio",
        "_size",
        "_counters",
        "_rng",
        # The arrays never resize after construction (growth happens by
        # chaining whole new tables), so each *side* -- a bucket array, its
        # hash function and its bucket count -- is bound once here; a probe is
        # ``array[hash(key) % count]``, also from ``TableChain``/``CuckooGraph``.
        "_sides",
        "_cells_total",
        "_kick_budget",
    )

    def __init__(
        self,
        length: int,
        d: int,
        hash_pair: tuple[HashFunction, HashFunction],
        max_kicks: int,
        array_ratio: int = 2,
        counters: Optional[Counters] = None,
        rng: Optional[random.Random] = None,
    ):
        if length < 1:
            raise ValueError(f"table length must be >= 1, got {length}")
        self.length = length
        self.d = d
        self.max_kicks = max_kicks
        self.array_ratio = array_ratio
        second = max(1, length // array_ratio)
        # Each array is a list of buckets; each bucket is a dict key -> value
        # capped at d entries.  A dict keeps lookups O(1) within the bucket
        # while preserving the d-cell capacity semantics.
        self._sides = (
            ([{} for _ in range(length)], hash_pair[0], length),
            ([{} for _ in range(second)], hash_pair[1], second),
        )
        self._size = 0
        self._counters = counters if counters is not None else Counters()
        self._rng = rng if rng is not None else random.Random(0xC0FFEE)
        self._cells_total = (length + second) * d
        # A random walk longer than the table has cells cannot make progress,
        # so the effective kick budget of a small table is capped by its size;
        # T remains the budget for tables big enough to use it.
        self._kick_budget = min(max_kicks, self._cells_total)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return self._size

    @property
    def num_buckets(self) -> int:
        """Total number of buckets across both arrays."""
        return self._cells_total // self.d

    @property
    def num_cells(self) -> int:
        """Total number of cells (bucket count times ``d``)."""
        return self._cells_total

    @property
    def loading_rate(self) -> float:
        """Fraction of cells currently occupied (``LR`` in the paper)."""
        return self._size / self._cells_total

    def __contains__(self, key: int) -> bool:
        return self.get(key, _MISSING) is not _MISSING

    def holds(self, key: int) -> bool:
        """Membership without charging the access counters: a guard for
        callers whose modelled algorithm does not make this probe (see
        ``TableChain.insert``)."""
        return any(key in array[hash_of(key) % count]
                   for array, hash_of, count in self._sides)

    def items(self) -> list[tuple[int, object]]:
        """All ``(key, value)`` pairs: first array then second, bucket by bucket."""
        return [item for array, _, _ in self._sides for bucket in array
                for item in bucket.items()]

    def keys(self) -> list[int]:
        """All keys, in the order of :meth:`items`."""
        return [key for array, _, _ in self._sides for bucket in array for key in bucket]

    # ------------------------------------------------------------------ #
    # Core operations
    # ------------------------------------------------------------------ #

    def get(self, key: int, default=None):
        """Return the value stored for ``key`` or ``default`` if absent."""
        counters = self._counters
        for array, hash_of, count in self._sides:
            bucket = array[hash_of(key) % count]
            counters.bucket_probes += 1
            counters.cell_probes += len(bucket)
            if key in bucket:
                return bucket[key]
        return default

    def update(self, key: int, value) -> bool:
        """Overwrite the value of an existing key in place.

        Returns ``True`` when the key was found (and updated); a missing key
        is left untouched.  This is the single-probe-pass path the weighted
        version uses to bump an edge weight.
        """
        for array, hash_of, count in self._sides:
            bucket = array[hash_of(key) % count]
            self._counters.bucket_probes += 1
            if key in bucket:
                bucket[key] = value
                return True
        return False

    def insert(self, key: int, value=None, probed=None) -> Optional[tuple[int, object]]:
        """Insert ``key -> value``; return an evicted pair on failure.

        Returns ``None`` when the item (and every item displaced along the
        way) found a home.  If the kick-out budget ``T`` is exhausted the
        final homeless pair is returned so the caller can route it to a
        denylist or trigger an expansion.  If ``key`` is already present its
        value is overwritten in place.

        ``probed`` is the key's two candidate buckets when the caller has just
        probed them and found the key absent (the pre-query of Insertion
        Step 1): they are used instead of hashing again, and charged the same.
        """
        counters = self._counters
        (array0, hash0, count0), (array1, hash1, count1) = self._sides
        if probed is None:
            bucket0 = array0[hash0(key) % count0]
            bucket1 = array1[hash1(key) % count1]
            # Overwrite in place if the key already resides in the table; the
            # presence check reuses the buckets just probed.
            holder = bucket0 if key in bucket0 else bucket1 if key in bucket1 else None
            if holder is not None:
                holder[key] = value
                counters.insert_attempts += 1
                counters.bucket_probes += 2
                return None
        else:
            bucket0, bucket1 = probed
        d = self.d
        kicks = 0
        while len(bucket0) >= d and len(bucket1) >= d and kicks < self._kick_budget:
            # Both candidate buckets are full: kick a random resident out of a
            # randomly chosen candidate bucket and take its place.
            victim_bucket = bucket0 if self._rng.randrange(2) == 0 else bucket1
            victim_key = self._rng.choice(list(victim_bucket))
            victim_value = victim_bucket.pop(victim_key)
            victim_bucket[key] = value
            kicks += 1
            key, value = victim_key, victim_value
            bucket0 = array0[hash0(key) % count0]
            bucket1 = array1[hash1(key) % count1]
        counters.insert_attempts += kicks + 1
        counters.bucket_probes += 2 * kicks + 2
        counters.kicks += kicks
        if len(bucket0) < d:
            bucket0[key] = value
        elif len(bucket1) < d:
            bucket1[key] = value
        else:
            counters.insert_failures += 1
            return (key, value)
        self._size += 1
        return None

    def delete(self, key: int) -> bool:
        """Remove ``key`` from the table; return ``True`` if it was present."""
        for array, hash_of, count in self._sides:
            bucket = array[hash_of(key) % count]
            self._counters.bucket_probes += 1
            if key in bucket:
                del bucket[key]
                self._size -= 1
                return True
        return False

    def pop_all(self) -> list[tuple[int, object]]:
        """Remove and return every ``(key, value)`` pair (used by rebuilds)."""
        drained = self.items()
        for array, _, _ in self._sides:
            for bucket in array:
                bucket.clear()
        self._size = 0
        return drained

    # ------------------------------------------------------------------ #
    # Memory model
    # ------------------------------------------------------------------ #

    def modelled_bytes(self, bytes_per_cell: int) -> int:
        """Modelled C++ memory footprint of the table.

        Every allocated cell costs ``bytes_per_cell`` regardless of occupancy
        (the arrays are pre-allocated).
        """
        return self.num_cells * bytes_per_cell


_MISSING = object()
