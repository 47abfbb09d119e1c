"""Sharded front-end: hash-partitioning CuckooGraph for scale-out workloads.

The paper evaluates a single CuckooGraph instance; scaling the reproduction
toward "heavy traffic" service means routing operations across *independent*
partitions, the same way clustered/partitioned worker designs split a global
problem into per-cluster sub-problems.  :class:`ShardedCuckooGraph` implements
that front-end:

* **Partitioning.**  Every directed edge ``⟨u, v⟩`` lives on the shard owned
  by its *source* node ``u``, chosen by :func:`~repro.interfaces.shard_index`
  -- the one routing hash every store and the write-ahead log share -- so
  the same node always lands on the same shard, across operations, instances
  and processes.  Because all of ``u``'s out-edges share a shard,
  ``successors(u)`` and ``out_degree(u)`` are single-shard operations.

* **Independence.**  Each shard is a complete :class:`~repro.core.graph.CuckooGraph`
  (or :class:`~repro.core.weighted.WeightedCuckooGraph`) with its own hash
  family, denylists and counters; shards never coordinate.  That is what
  lets the write-ahead log keep one segment per shard and the tiered store
  move a whole shard between tiers.

* **Batching and aggregation.**  Everything that does not depend on what a
  shard is comes from :class:`~repro.interfaces.PartitionedStore`, the base
  this class shares with the tiered store: single-op routing, batches grouped
  per shard (:func:`~repro.interfaces.partition`) and drained group by group
  on the calling thread through the shard's own batch method, ``has_edges``
  answers scattered back to input order, and ``edges``, ``num_edges``,
  ``memory_bytes`` and ``accesses`` summed over the shards.  Its one hook,
  "the store that serves shard *i*", is ``shards[i]`` here.  This class adds
  only what CuckooGraph shards have: the seeded shard construction, weighted
  pass-throughs, summed ``counters`` and ``structure_summary``.

* **Lifecycle.**  ``close()`` is idempotent; afterwards the batch
  operations raise :class:`~repro.core.errors.StoreClosedError`, while
  single operations keep working so a closed store can still be inspected.

The class passes the same store-contract and differential suites as the
single-instance structures (see ``tests/core/test_sharded.py`` and
``tests/core/test_differential.py``).
"""

from __future__ import annotations

from typing import Callable, Iterator, Optional

from ..interfaces import PartitionedStore, WeightedGraphStore, shard_index
from .config import CuckooGraphConfig, PAPER_CONFIG
from .counters import Counters
from .errors import ConfigurationError
from .graph import CuckooGraph
from .weighted import WeightedCuckooGraph


class ShardedCuckooGraph(PartitionedStore):
    """Hash-partitioned collection of independent CuckooGraph shards.

    Args:
        num_shards: Number of independent partitions (``>= 1``).
        config: Base CuckooGraph configuration; each shard derives its own
            hash seeds from it (``seed + shard index``) so two shards never
            share hash functions.
        weighted: Build :class:`WeightedCuckooGraph` shards (duplicate edges
            increment a weight) instead of the basic distinct-edge version.
        shard_factory: Optional override constructing one shard from its
            :class:`CuckooGraphConfig`; takes precedence over ``weighted``.

    Example:
        >>> graph = ShardedCuckooGraph(num_shards=4)
        >>> graph.insert_edges([(1, 2), (1, 3), (2, 3)])
        3
        >>> graph.has_edges([(1, 2), (9, 9)])
        [True, False]
        >>> sorted(graph.successors(1))
        [2, 3]
    """

    name = "ShardedCuckooGraph"

    def __init__(
        self,
        num_shards: int = 4,
        config: Optional[CuckooGraphConfig] = None,
        weighted: bool = False,
        shard_factory: Optional[Callable[[CuckooGraphConfig], CuckooGraph]] = None,
    ):
        if num_shards < 1:
            raise ConfigurationError(f"num_shards must be >= 1, got {num_shards}")
        self.config = config if config is not None else PAPER_CONFIG
        self.num_shards = num_shards
        if shard_factory is None:
            shard_factory = WeightedCuckooGraph if weighted else CuckooGraph
        self.shards = [
            shard_factory(self.config.with_overrides(seed=self.config.seed + index))
            for index in range(num_shards)
        ]
        # Weightedness is a property of what the factory actually built (a
        # custom factory takes precedence over the ``weighted`` argument).
        self.weighted = isinstance(self.shards[0], WeightedGraphStore)

    def spawn_empty(self) -> "ShardedCuckooGraph":
        """Fresh empty front-end with the same shard count and config.

        A custom ``shard_factory`` is not propagated (it may close over
        state); the ``weighted`` flag carries the common case.
        """
        return ShardedCuckooGraph(
            num_shards=self.num_shards, config=self.config, weighted=self.weighted
        )

    @property
    def num_source_nodes(self) -> int:
        """Number of distinct source nodes across all shards."""
        return sum(shard.num_source_nodes for shard in self.shards)

    # ------------------------------------------------------------------ #
    # Weighted pass-throughs (only valid with weighted shards)
    # ------------------------------------------------------------------ #

    def _require_weighted(self) -> None:
        if not self.weighted:
            raise TypeError(
                "weighted operations need ShardedCuckooGraph(weighted=True)"
            )

    def insert_weighted_edge(self, u: int, v: int, delta: int = 1) -> int:
        """Insert ``⟨u, v⟩`` or bump its weight by ``delta``; return the new weight."""
        self._require_weighted()
        return self.shards[shard_index(u, self.num_shards)].insert_weighted_edge(u, v, delta)

    def edge_weight(self, u: int, v: int) -> int:
        """Current weight of ``⟨u, v⟩`` (0 if the edge is absent)."""
        self._require_weighted()
        return self.shards[shard_index(u, self.num_shards)].edge_weight(u, v)

    def weighted_edges(self) -> Iterator[tuple[int, int, int]]:
        """Iterate over ``(u, v, w)`` triples, shard by shard."""
        self._require_weighted()
        for shard in self.shards:
            yield from shard.weighted_edges()

    # ------------------------------------------------------------------ #
    # Aggregated accounting
    # ------------------------------------------------------------------ #

    @property
    def counters(self) -> Counters:
        """Aggregated operation counters (a fresh sum; do not mutate)."""
        total = Counters()
        for shard in self.shards:
            total = total + shard.counters
        return total

    def shard_sizes(self) -> list[int]:
        """Edges per shard, in shard order (balance diagnostic)."""
        return [shard.num_edges for shard in self.shards]

    def structure_summary(self) -> dict[str, object]:
        """Aggregate snapshot plus the per-shard summaries."""
        return {
            "num_shards": self.num_shards,
            "num_edges": self.num_edges,
            "num_source_nodes": self.num_source_nodes,
            "shard_edge_counts": self.shard_sizes(),
            "memory_bytes": self.memory_bytes(),
            "shards": [shard.structure_summary() for shard in self.shards],
        }
