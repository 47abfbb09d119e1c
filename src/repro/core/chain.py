"""The TRANSFORMATION technique: chains of cuckoo hash tables.

A *table chain* is the set of up to ``R`` cuckoo hash tables reachable from
the ``R`` large slots of a cell (an "S-CHT chain" in the paper's terms), or
equivalently the set of L-CHTs a graph maintains.  The chain smoothly expands
and contracts following the rule illustrated by Table II of the paper
(reproduced here for ``R = 3`` with initial length ``n``)::

    step  tables (lengths)
    0     [n]
    1     [n, n/2]
    2     [n, n/2, n/2]
    3     [2n, n]           <- the three tables merge into one of length 2n,
    4     [2n, n, n]           and a fresh table of half that length opens
    5     [4n, 2n]
    6     [4n, 2n, 2n]
    ...

Forward transformation (expansion) triggers when the most recently enabled
table's loading rate reaches ``G`` before a new item arrives.  Reverse
transformation (contraction) triggers when a deletion drops the chain's
*overall* loading rate below ``Λ``: with two or more tables the table that
held the deleted item is dissolved into its siblings; with a single table the
table is compressed to half its length.
"""

from __future__ import annotations

import random
from typing import Callable, Optional

from .config import CuckooGraphConfig
from .counters import Counters
from .cuckoo_table import CuckooHashTable
from .hashing import HashFamily


def _first_true(predicate: Callable[[int], bool], guess: int) -> int:
    """Smallest ``n >= 0`` for which the monotone ``predicate`` holds, searched
    from ``guess``: turns a float loading-rate test into an integer threshold
    that decides exactly as the divisions would."""
    while guess > 0 and predicate(guess - 1):
        guess -= 1
    while not predicate(guess):
        guess += 1
    return guess


#: Type of the optional hook used to drain denylisted items back into a chain
#: right after it expands.  It must return ``(key, value)`` pairs and remove
#: them from wherever they were parked.
DrainSource = Callable[[], list[tuple[int, object]]]


class TableChain:
    """A chain of cuckoo hash tables governed by the TRANSFORMATION rule.

    The chain behaves as a single ``key -> value`` map whose capacity grows
    and shrinks in the pattern of Table II.  Insertion failures are *not*
    swallowed: the leftover pairs are returned to the caller, which routes
    them to the appropriate denylist (or forces an expansion when running the
    denylist-free ablation).

    Args:
        config: Graph-wide parameter set.
        hash_family: Source of hash-function pairs for newly enabled tables.
        initial_length: Length ``n`` of the first table.
        counters: Shared operation counters.
        rng: Random source for eviction decisions.
        drain_source: Optional hook returning previously denylisted items that
            belong to this chain; called after every expansion, per the
            DENYLIST design ("each time it is the S-CHT's turn to expand ...").
    """

    __slots__ = (
        "config",
        "_family",
        "_initial_length",
        "_counters",
        "_rng",
        "tables",
        "drain_source",
        "transform_step",
        # Refreshed by ``_retable`` whenever ``tables`` changes: every table's
        # sides in probe order, the running totals, and the two loading-rate
        # thresholds as integers, so the per-item checks are one comparison.
        "_sides",
        "_size",
        "_cells",
        "_grow_above",
        "_shrink_below",
    )

    def __init__(
        self,
        config: CuckooGraphConfig,
        hash_family: HashFamily,
        initial_length: int,
        counters: Optional[Counters] = None,
        rng: Optional[random.Random] = None,
        drain_source: Optional[DrainSource] = None,
    ):
        self.config = config
        self._family = hash_family
        self._initial_length = max(1, initial_length)
        self._counters = counters if counters is not None else Counters()
        self._rng = rng if rng is not None else random.Random(config.seed)
        self.drain_source = drain_source
        self.transform_step = 0
        self.tables: list[CuckooHashTable] = [self._new_table(self._initial_length)]
        self._retable()

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #

    def _new_table(self, length: int) -> CuckooHashTable:
        return CuckooHashTable(
            length=max(1, length),
            d=self.config.d,
            hash_pair=self._family.make_pair(),
            max_kicks=self.config.T,
            array_ratio=self.config.array_ratio,
            counters=self._counters,
            rng=self._rng,
        )

    def _retable(self) -> None:
        """Refresh the running totals and thresholds after ``tables`` was rebuilt."""
        G, lam = self.config.G, self.config.lam
        self._sides = tuple(side for table in self.tables for side in table._sides)
        self._size = sum(table._size for table in self.tables)
        cells = self._cells = sum(table._cells_total for table in self.tables)
        newest = self.tables[-1]._cells_total
        # The newest table expands once its size exceeds ``_grow_above``; the
        # chain contracts once its size drops below ``_shrink_below``.
        self._grow_above = _first_true(
            lambda size: (size + 1) / newest > G or size / newest >= G, int(G * newest)) - 1
        self._shrink_below = _first_true(
            lambda size: not size / cells < lam, int(lam * cells))

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return self._size

    @property
    def num_tables(self) -> int:
        """Number of currently enabled tables in the chain."""
        return len(self.tables)

    @property
    def table_lengths(self) -> list[int]:
        """Lengths of the enabled tables, oldest first (matches Table II rows)."""
        return [table.length for table in self.tables]

    @property
    def total_cells(self) -> int:
        """Total number of allocated cells across the chain."""
        return self._cells

    @property
    def overall_loading_rate(self) -> float:
        """Items divided by allocated cells across the whole chain."""
        return self._size / self._cells

    def items(self) -> list[tuple[int, object]]:
        """Every ``(key, value)`` pair stored in the chain: oldest table first,
        each table in the order of :meth:`CuckooHashTable.items`."""
        return [item for array, _, _ in self._sides for bucket in array
                for item in bucket.items()]

    def keys(self) -> list[int]:
        """Every key stored in the chain, in the order of :meth:`items`."""
        return [key for array, _, _ in self._sides for bucket in array for key in bucket]

    def __contains__(self, key: int) -> bool:
        return self.get(key, _MISSING) is not _MISSING

    # ------------------------------------------------------------------ #
    # Lookup / insert / delete
    # ------------------------------------------------------------------ #

    def get(self, key: int, default=None):
        """Return the value stored for ``key``, searching every table (in this
        frame; charged as one ``table.get`` per table would charge)."""
        probes = cells = 0
        for array, hash_of, count in self._sides:
            bucket = array[hash_of(key) % count]
            probes += 1
            cells += len(bucket)
            if key in bucket:
                default = bucket[key]
                break
        self._counters.bucket_probes += probes
        self._counters.cell_probes += cells
        return default

    def update(self, key: int, value) -> bool:
        """Overwrite the value of an existing key; ``False`` when it is absent."""
        for table in self.tables:
            if table.update(key, value):
                return True
        return False

    def insert(self, key: int, value=None, assume_absent: bool = False,
               probed=None) -> list[tuple[int, object]]:
        """Insert ``key -> value`` into the chain.

        Returns the (possibly empty) list of pairs that could not be placed
        anywhere even after kick-outs; the caller is responsible for parking
        them in a denylist or forcing an expansion.

        Args:
            key: Key to insert.
            value: Value to associate with the key.
            assume_absent: Skip the older-table overwrite scan.  Callers that
                have just queried the chain (the graph's Insertion Step 1)
                pass ``True`` so the pre-query is not paid twice.
            probed: The key's two candidate buckets in the newest table when
                that query has just probed them (dropped if the chain expands).
        """
        # Overwrite in place when the key already lives in an *older* table,
        # so a chain never holds two copies of the same key.  The newest
        # table handles its own overwrite inside ``insert`` at no extra probe
        # cost, so single-table chains (the common case) skip this scan.
        newest = self.tables[-1]
        grow = newest._size > self._grow_above
        if not assume_absent:
            for table in self.tables[:-1]:
                if key in table:
                    table.insert(key, value)
                    return []
            # When this insert expands the chain, the table that is newest
            # now is an older one by the time the key is placed, so it needs
            # the same check.  It is charged only on a hit (by the
            # overwrite): the graphs come through here with absent keys
            # only, and their modelled access counts do not pay for it.
            if grow and newest.holds(key):
                newest.insert(key, value)
                return []

        leftovers: list[tuple[int, object]] = []
        if grow:
            leftovers = self.expand()
            newest = self.tables[-1]
            probed = None

        before = newest._size
        leftover = newest.insert(key, value, probed)
        self._size += newest._size - before
        if leftover is not None:
            leftovers.append(leftover)
        return leftovers

    def delete(self, key: int) -> tuple[bool, list[tuple[int, object]]]:
        """Delete ``key`` from the chain.

        Returns ``(deleted, leftovers)`` where ``leftovers`` are pairs that
        became homeless during a reverse transformation triggered by this
        deletion.
        """
        for holder_index, table in enumerate(self.tables):
            if table.delete(key):
                break
        else:
            return False, []
        self._size -= 1
        if 0 < self._size < self._shrink_below:
            return True, self._reverse_transform(holder_index)
        return True, []

    # ------------------------------------------------------------------ #
    # Forward transformation
    # ------------------------------------------------------------------ #

    def expand(self) -> list[tuple[int, object]]:
        """Advance the chain one step of the transformation rule.

        Either enables a fresh table (half the length of the first one) or,
        when ``R`` tables are already enabled, merges them all into a single
        table of twice the first table's length and opens a fresh half-length
        table next to it.  Returns pairs that could not be re-homed during a
        merge.
        """
        self._counters.expansions += 1
        self.transform_step += 1
        leftovers: list[tuple[int, object]] = []
        if len(self.tables) < self.config.R:
            new_length = max(1, self.tables[0].length // 2)
            self.tables.append(self._new_table(new_length))
        else:
            merged_length = self.tables[0].length * 2
            residents: list[tuple[int, object]] = []
            for table in self.tables:
                residents.extend(table.pop_all())
            merged = self._new_table(merged_length)
            fresh = self._new_table(max(1, merged_length // 2))
            self.tables = [merged, fresh]
            leftovers = self._reinsert(residents, targets=[merged, fresh])
        leftovers.extend(self._drain_denylist())
        self._retable()
        return leftovers

    def expand_on_failure(self, factor: Optional[float] = None) -> list[tuple[int, object]]:
        """Grow the newest table by ``factor`` and rehash it.

        This is the denylist-free fallback evaluated by the ablation study
        (Section V-C): every insertion failure expands the structure to 1.5x
        its original size instead of parking the item in a denylist.
        """
        factor = factor if factor is not None else self.config.failure_expand_factor
        self._counters.expansions += 1
        newest = self.tables[-1]
        residents = newest.pop_all()
        grown = self._new_table(max(newest.length + 1, int(newest.length * factor)))
        self.tables[-1] = grown
        leftovers = self._reinsert(residents, targets=[grown])
        self._retable()
        return leftovers

    # ------------------------------------------------------------------ #
    # Reverse transformation
    # ------------------------------------------------------------------ #

    def _reverse_transform(self, holder_index: int) -> list[tuple[int, object]]:
        """Contract the chain after a deletion dropped its overall LR below Λ.

        The contraction is skipped when the surviving tables would end up
        above the expansion threshold ``G`` -- contracting past that point
        would immediately cause kick storms and re-expansion, which neither
        the paper's design nor its Λ ≤ 2G/3 assumption intends.
        """
        items = self._size
        if len(self.tables) >= 2:
            victim = self.tables[holder_index]
            remaining_cells = self._cells - victim.num_cells
            if remaining_cells <= 0 or items / remaining_cells > self.config.G:
                return []
            self._counters.contractions += 1
            self.tables.pop(holder_index)
            residents = victim.pop_all()
        else:
            table = self.tables[0]
            if table.length <= 1:
                return []
            half = max(1, table.length // 2)
            compressed_cells = (half + max(1, half // self.config.array_ratio)) * self.config.d
            if items / compressed_cells > self.config.G:
                return []
            self._counters.contractions += 1
            residents = table.pop_all()
            self.tables = [self._new_table(half)]
        leftovers = self._reinsert(residents, targets=self.tables)
        self._retable()
        return leftovers

    # ------------------------------------------------------------------ #
    # Internal helpers
    # ------------------------------------------------------------------ #

    def _reinsert(
        self,
        pairs: list[tuple[int, object]],
        targets: list[CuckooHashTable],
    ) -> list[tuple[int, object]]:
        """Re-home ``pairs`` into ``targets``; return the ones that failed."""
        leftovers: list[tuple[int, object]] = []
        self._counters.rehashed_items += len(pairs)
        for key, value in pairs:
            # Fill the least-loaded table first: re-homing into an almost-full
            # table would burn the whole kick budget before giving up.
            order = targets
            if len(targets) == 2:
                first, second = targets
                if second._size / second._cells_total < first._size / first._cells_total:
                    order = (second, first)
            elif len(targets) > 2:
                order = sorted(targets, key=lambda candidate: candidate.loading_rate)
            for table in order:
                leftover = table.insert(key, value)
                if leftover is None:
                    break
                # The insert displaced a different pair; keep chasing it.
                key, value = leftover
            else:
                leftovers.append(leftover)
        return leftovers

    def _drain_denylist(self) -> list[tuple[int, object]]:
        """Re-insert denylisted items belonging to this chain after an expansion."""
        if self.drain_source is None:
            return []
        pairs = self.drain_source()
        if not pairs:
            return []
        return self._reinsert(pairs, targets=list(self.tables))

    # ------------------------------------------------------------------ #
    # Memory model
    # ------------------------------------------------------------------ #

    def modelled_bytes(self, bytes_per_cell: int) -> int:
        """Modelled C++ footprint of every table in the chain."""
        return sum(table.modelled_bytes(bytes_per_cell) for table in self.tables)


_MISSING = object()
