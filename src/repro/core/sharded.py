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

* **Batching.**  The batch operations (:meth:`insert_edges`,
  :meth:`delete_edges`, :meth:`has_edges`, :meth:`successors_many`) group a
  request stream per shard first (:func:`~repro.interfaces.partition`) and
  then drain each group, one after another on the calling thread, with the
  shard's bound method, amortizing attribute lookups and dispatch over the
  whole group instead of paying them per edge.  Results are scattered back in
  input order where order matters (:meth:`has_edges`).  The mutations are the
  store contract's two halves -- ``partition_edges``, then
  :meth:`insert_groups`/:meth:`delete_groups` -- so a wrapper that needs the
  routing itself (the write-ahead log keeps one segment per shard) routes a
  batch once and hands the groups back.

* **Aggregation.**  ``accesses``, ``counters``, ``memory_bytes`` and
  ``structure_summary`` combine the per-shard quantities, so the sharded
  store drops into every benchmark template and memory experiment unchanged.

The class implements :class:`repro.interfaces.DynamicGraphStore` and passes
the same store-contract and differential suites as the single-instance
structures (see ``tests/core/test_sharded.py`` and
``tests/core/test_differential.py``).
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Optional

from ..interfaces import DynamicGraphStore, WeightedGraphStore, partition, shard_index
from .config import CuckooGraphConfig, PAPER_CONFIG
from .counters import Counters
from .errors import ConfigurationError, StoreClosedError
from .graph import CuckooGraph
from .weighted import WeightedCuckooGraph


class ShardedCuckooGraph(DynamicGraphStore):
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
        self._closed = False
        if shard_factory is None:
            shard_factory = WeightedCuckooGraph if weighted else CuckooGraph
        self.shards = [
            shard_factory(self.config.with_overrides(seed=self.config.seed + index))
            for index in range(num_shards)
        ]
        # Weightedness is a property of what the factory actually built (a
        # custom factory takes precedence over the ``weighted`` argument).
        self.weighted = isinstance(self.shards[0], WeightedGraphStore)

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has been called."""
        return self._closed

    def close(self) -> None:
        """Stop accepting batch calls.  Idempotent.

        After ``close`` the batch operations raise :class:`StoreClosedError`,
        so a wrapper that closed its store fails loudly when something still
        feeds it batches; the single-operation read/write paths keep working,
        so callers can still inspect a closed store.
        """
        self._closed = True

    def __enter__(self) -> "ShardedCuckooGraph":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _check_open(self) -> None:
        if self._closed:
            raise StoreClosedError(
                f"{self.name} is closed; batch operations are no longer accepted"
            )

    # ------------------------------------------------------------------ #
    # Routing
    # ------------------------------------------------------------------ #

    def spawn_empty(self) -> "ShardedCuckooGraph":
        """Fresh empty front-end with the same shard count and config.

        A custom ``shard_factory`` is not propagated (it may close over
        state); the ``weighted`` flag carries the common case.
        """
        return ShardedCuckooGraph(
            num_shards=self.num_shards, config=self.config, weighted=self.weighted
        )

    def _shard(self, u: int) -> CuckooGraph:
        return self.shards[shard_index(u, self.num_shards)]

    # ------------------------------------------------------------------ #
    # DynamicGraphStore API (single-operation paths)
    # ------------------------------------------------------------------ #

    def insert_edge(self, u: int, v: int) -> bool:
        """Insert ``⟨u, v⟩`` on the shard owning ``u``."""
        return self._shard(u).insert_edge(u, v)

    def has_edge(self, u: int, v: int) -> bool:
        """Whether ``⟨u, v⟩`` is stored (probes exactly one shard)."""
        return self._shard(u).has_edge(u, v)

    def delete_edge(self, u: int, v: int) -> bool:
        """Delete ``⟨u, v⟩`` from the shard owning ``u``."""
        return self._shard(u).delete_edge(u, v)

    def successors(self, u: int) -> list[int]:
        """Out-neighbours of ``u`` -- a single-shard lookup by construction."""
        return self._shard(u).successors(u)

    def out_degree(self, u: int) -> int:
        """Out-degree of ``u`` without materialising the successor list."""
        return self._shard(u).out_degree(u)

    def has_node(self, u: int) -> bool:
        """Whether ``u`` is currently stored as a source node."""
        return self._shard(u).has_node(u)

    def source_nodes(self) -> Iterator[int]:
        """Iterate over source nodes, shard by shard."""
        for shard in self.shards:
            yield from shard.source_nodes()

    def edges(self) -> Iterator[tuple[int, int]]:
        """Iterate over every stored directed edge, shard by shard."""
        for shard in self.shards:
            yield from shard.edges()

    @property
    def num_edges(self) -> int:
        """Number of distinct directed edges across all shards."""
        return sum(shard.num_edges for shard in self.shards)

    @property
    def num_source_nodes(self) -> int:
        """Number of distinct source nodes across all shards."""
        return sum(shard.num_source_nodes for shard in self.shards)

    # ------------------------------------------------------------------ #
    # Batch operations (the point of the front-end)
    # ------------------------------------------------------------------ #

    def insert_groups(self, groups: dict[int, list[tuple[int, int]]]) -> int:
        """Insert :meth:`partition_edges` groups; return how many edges were new."""
        self._check_open()
        shards = self.shards
        inserted = 0
        for index, group in groups.items():
            insert = shards[index].insert_edge
            for u, v in group:
                if insert(u, v):
                    inserted += 1
        return inserted

    def delete_groups(self, groups: dict[int, list[tuple[int, int]]]) -> int:
        """Delete :meth:`partition_edges` groups; return how many edges were present."""
        self._check_open()
        shards = self.shards
        deleted = 0
        for index, group in groups.items():
            delete = shards[index].delete_edge
            for u, v in group:
                if delete(u, v):
                    deleted += 1
        return deleted

    def insert_edges(self, edges: Iterable[tuple[int, int]]) -> int:
        """Insert a batch of edges grouped per shard; return how many were new."""
        return self.insert_groups(self.partition_edges(edges))

    def delete_edges(self, edges: Iterable[tuple[int, int]]) -> int:
        """Delete a batch of edges grouped per shard; return how many were present."""
        return self.delete_groups(self.partition_edges(edges))

    def has_edges(self, edges: Iterable[tuple[int, int]]) -> list[bool]:
        """Membership of a batch of edges, in input order.

        The batch is routed per shard, each group is answered with the
        shard's bound ``has_edge``, and the answers are scattered back to the
        positions the caller supplied.
        """
        self._check_open()
        edges = list(edges)
        shards = self.shards
        groups = partition(range(len(edges)), self.num_shards,
                           node=lambda position: edges[position][0])
        answers: list[bool] = [False] * len(edges)
        for index, positions in groups.items():
            query = shards[index].has_edge
            for position in positions:
                answers[position] = query(*edges[position])
        return answers

    def successors_many(self, nodes: Iterable[int]) -> dict[int, list[int]]:
        """Successor lists for a batch of distinct source nodes, per shard.

        Honours the :class:`~repro.interfaces.DynamicGraphStore` batch
        contract: keys are the distinct requested nodes in first-occurrence
        order of the input (the per-shard answers are re-keyed back to that
        order), unknown nodes map to empty lists, and each list equals what
        ``successors`` would return.
        """
        self._check_open()
        ordered = list(dict.fromkeys(nodes))
        shards = self.shards
        gathered: dict[int, list[int]] = {}
        for index, group in partition(ordered, self.num_shards, node=lambda u: u).items():
            successors = shards[index].successors
            for u in group:
                gathered[u] = successors(u)
        return {u: gathered[u] for u in ordered}

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
        return self._shard(u).insert_weighted_edge(u, v, delta)

    def edge_weight(self, u: int, v: int) -> int:
        """Current weight of ``⟨u, v⟩`` (0 if the edge is absent)."""
        self._require_weighted()
        return self._shard(u).edge_weight(u, v)

    def weighted_edges(self) -> Iterator[tuple[int, int, int]]:
        """Iterate over ``(u, v, w)`` triples, shard by shard."""
        self._require_weighted()
        for shard in self.shards:
            yield from shard.weighted_edges()

    # ------------------------------------------------------------------ #
    # Aggregated accounting
    # ------------------------------------------------------------------ #

    @property
    def accesses(self) -> int:
        """Modelled memory accesses summed over every shard."""
        return sum(shard.accesses for shard in self.shards)

    def reset_accesses(self) -> None:
        """Zero the modelled memory-access counter of every shard."""
        for shard in self.shards:
            shard.reset_accesses()

    @property
    def counters(self) -> Counters:
        """Aggregated operation counters (a fresh sum; do not mutate)."""
        total = Counters()
        for shard in self.shards:
            total = total + shard.counters
        return total

    def memory_bytes(self) -> int:
        """Modelled memory footprint summed over every shard."""
        return sum(shard.memory_bytes() for shard in self.shards)

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
