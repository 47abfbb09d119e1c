"""Store-agnostic interface implemented by every dynamic-graph structure.

The paper's evaluation compares CuckooGraph against LiveGraph, Spruce,
Sortledton and the Wind-Bell Index by driving each one through the same basic
operations (insert / query / delete an edge, enumerate successors) and the
same analytics kernels.  :class:`DynamicGraphStore` captures exactly that
contract so the benchmark harness and the analytics package never special-case
a particular scheme.

Shard routing is part of the same contract and is decided here only:
:func:`shard_index` places a source node, :func:`partition` groups a batch by
it, and every store answers ``num_shards`` / ``shard_of`` /
``partition_edges`` from those two.  So is the lifecycle: every store has
``close()``, ``closed``, the context-manager protocol,
``structure_summary()`` and ``counters``; which calls a closed store still
accepts is the scheme's choice.

Two bases carry the contract for the stores built out of other stores:

* :class:`DelegatingStore` forwards every member to one wrapped store; the
  write-ahead log (:class:`~repro.persist.PersistentStore`) overrides only
  its logged mutations, the service client
  (:class:`~repro.service.GraphClient`) only the calls it sends through the
  service.
* :class:`PartitionedStore` owns one store per shard and does the routing,
  the batch scatter/gather and the aggregation once; the sharded front-end
  (:class:`~repro.core.sharded.ShardedCuckooGraph`) and the tiered store
  (:class:`~repro.tiered.TieredStore`) differ only in its one hook,
  :meth:`PartitionedStore._serve` -- which store serves a shard.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from itertools import starmap
from operator import itemgetter
from typing import Callable, Iterable, Iterator, TypeVar

_T = TypeVar("_T")

_MASK64 = 0xFFFFFFFFFFFFFFFF

#: Fixed odd multiplier for the shard-routing hash (multiply-shift).  It is a
#: constant -- not drawn from a seeded RNG -- so that routing is stable across
#: instances and processes.  WAL segment *i* holds exactly the sources routed
#: to shard *i*, so changing the hash changes the on-disk format.
_ROUTE_MULTIPLIER = 0x9E3779B97F4A7C15


def shard_index(node: int, num_shards: int) -> int:
    """Deterministic shard index of a source node.

    A multiply-shift hash decorrelates the shard choice from the low bits of
    the node id (sequential ids would otherwise stripe shards), and the high
    32 bits are reduced modulo the shard count.
    """
    return (((node * _ROUTE_MULTIPLIER) & _MASK64) >> 32) % num_shards


def partition(items: Iterable[_T], num_shards: int,
              node: Callable[[_T], int] = itemgetter(0)) -> dict[int, list[_T]]:
    """Group ``items`` per shard owning ``node(item)`` (an edge's source).

    Shards appear in first-seen order and items keep input order within a
    shard; an empty input gives ``{}``.
    """
    groups: dict[int, list[_T]] = {}
    for item in items:
        index = shard_index(node(item), num_shards)
        group = groups.get(index)
        if group is None:
            groups[index] = [item]
        else:
            group.append(item)
    return groups


class DynamicGraphStore(ABC):
    """Minimal contract for a dynamic directed-graph storage scheme.

    Nodes are integers (the paper uses 8-byte identifiers).  Edges are
    directed ``⟨u, v⟩`` pairs; the basic contract stores each distinct edge at
    most once.  Implementations additionally expose a modelled memory
    footprint so the memory-usage experiments can compare layouts without
    relying on interpreter-level measurements.

    **Batch contract.**  Alongside the per-edge operations, every store
    answers batched forms (``insert_edges`` / ``delete_edges`` /
    ``has_edges`` / ``successors_many``) with loop-based defaults, and
    batch-capable callers -- the analytics traversal engine, the benchmark
    harness, the sharded front-end -- are written exclusively against them.
    ``successors_many`` is the load-bearing member of that family: frontier
    expansion for every analytics kernel goes through it, so overriding it is
    how a store (or a front-end such as
    :class:`~repro.core.sharded.ShardedCuckooGraph`, which groups the batch
    per shard and drains each group with one bound method) accelerates the
    whole analytics layer at once.  Overrides must preserve the default's
    observable semantics, spelled out in :meth:`successors_many`.

    The batch mutations split into routing and applying:
    :meth:`partition_edges` groups a batch per owning shard, and
    :meth:`insert_groups` / :meth:`delete_groups` apply such groups.  A
    partitioned store's ``insert_edges`` *is* ``insert_groups(
    partition_edges(edges))``, so a wrapper that needs the routing itself
    (the write-ahead log keeps one segment per shard) routes a batch once
    and hands the same groups to the store.
    """

    #: Human-readable scheme name used in benchmark reports.
    name: str = "abstract"

    #: Operation counters (:class:`~repro.core.counters.Counters`) of a
    #: structure that keeps them; ``None`` for one that does not.
    counters = None

    _closed: bool = False

    #: Partitions the store routes source nodes over; a store that does not
    #: partition is one shard.
    num_shards: int = 1

    #: Whether ``insert_weighted_edge`` works on this store.
    weighted: bool = False

    #: Modelled memory accesses performed so far, at roughly cache-line
    #: granularity: one unit per bucket/block/list-node/index-level touched.
    #: The paper's throughput analysis is an argument about the *number of
    #: memory accesses* each structure needs per operation ("the upper limit
    #: on the number of memory accesses is fixed and small"), and pure-Python
    #: wall-clock time does not preserve that quantity, so every store keeps
    #: this counter and the throughput benchmarks report accesses/operation
    #: alongside wall-clock Mops.
    accesses: int = 0

    def reset_accesses(self) -> None:
        """Zero the modelled memory-access counter."""
        self.accesses = 0

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has been called."""
        return self._closed

    def close(self) -> None:
        """Release what the store holds.  Idempotent.

        A plain in-memory structure holds nothing and keeps serving after
        ``close``; a store that refuses calls once closed raises
        :class:`~repro.core.errors.StoreClosedError` from them (see
        :meth:`_check_open`), and each says which calls it refuses.
        """
        self._closed = True

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _check_open(self, refused: str = "operations") -> None:
        """Raise :class:`~repro.core.errors.StoreClosedError` once closed."""
        if self._closed:
            from .core.errors import StoreClosedError  # the core imports this module

            raise StoreClosedError(f"{self.name} is closed; {refused} are no longer accepted")

    def structure_summary(self) -> dict[str, object]:
        """A snapshot of the structural state, for reports and debugging."""
        return {"num_edges": self.num_edges}

    # ------------------------------------------------------------------ #
    # Required operations
    # ------------------------------------------------------------------ #

    @abstractmethod
    def insert_edge(self, u: int, v: int) -> bool:
        """Insert the directed edge ``⟨u, v⟩``; return ``True`` if it was new."""

    @abstractmethod
    def has_edge(self, u: int, v: int) -> bool:
        """Whether the directed edge ``⟨u, v⟩`` is currently stored."""

    @abstractmethod
    def delete_edge(self, u: int, v: int) -> bool:
        """Delete ``⟨u, v⟩``; return ``True`` if it was present."""

    @abstractmethod
    def successors(self, u: int) -> list[int]:
        """Return the out-neighbours of ``u`` (empty list if unknown)."""

    @abstractmethod
    def memory_bytes(self) -> int:
        """Modelled memory footprint, in bytes, of the current structure."""

    # ------------------------------------------------------------------ #
    # Derived operations with default implementations
    # ------------------------------------------------------------------ #

    @property
    @abstractmethod
    def num_edges(self) -> int:
        """Number of distinct directed edges currently stored."""

    def out_degree(self, u: int) -> int:
        """Out-degree of ``u``."""
        return len(self.successors(u))

    def has_node(self, u: int) -> bool:
        """Whether ``u`` appears as the source of at least one stored edge."""
        return self.out_degree(u) > 0

    @abstractmethod
    def edges(self) -> Iterator[tuple[int, int]]:
        """Iterate over every stored directed edge."""

    def source_nodes(self) -> Iterator[int]:
        """Iterate over nodes that have at least one outgoing edge."""
        seen: set[int] = set()
        for u, _ in self.edges():
            if u not in seen:
                seen.add(u)
                yield u

    def nodes(self) -> Iterator[int]:
        """Iterate over every node incident to a stored edge."""
        seen: set[int] = set()
        for u, v in self.edges():
            if u not in seen:
                seen.add(u)
                yield u
            if v not in seen:
                seen.add(v)
                yield v

    @property
    def num_nodes(self) -> int:
        """Number of distinct nodes incident to stored edges."""
        return sum(1 for _ in self.nodes())

    def spawn_empty(self) -> "DynamicGraphStore":
        """A fresh empty store of the same scheme.

        Subgraph extraction (the paper's "insert the subgraphs into each
        scheme" step) builds its target with this hook, so stores whose
        constructors take arguments -- the sharded front-end, the service
        client -- can reproduce their own configuration instead of relying
        on a zero-argument ``type(self)()``.
        """
        return type(self)()

    # ------------------------------------------------------------------ #
    # Routing
    # ------------------------------------------------------------------ #

    def shard_of(self, u: int) -> int:
        """Shard index owning source node ``u``."""
        return shard_index(u, self.num_shards)

    def partition_edges(
        self, edges: Iterable[tuple[int, int]]
    ) -> dict[int, list[tuple[int, int]]]:
        """Group a mutation batch per owning shard: ``{shard index: edges}``."""
        return partition(edges, self.num_shards)

    def insert_groups(self, groups: dict[int, list[tuple[int, int]]]) -> int:
        """Insert :meth:`partition_edges` groups; return how many edges were new."""
        insert = self.insert_edges
        return sum(insert(group) for group in groups.values())

    def delete_groups(self, groups: dict[int, list[tuple[int, int]]]) -> int:
        """Delete :meth:`partition_edges` groups; return how many edges were present."""
        delete = self.delete_edges
        return sum(delete(group) for group in groups.values())

    # ------------------------------------------------------------------ #
    # Batch operations shared by examples, benchmarks and front-ends
    # ------------------------------------------------------------------ #
    #
    # Every store gets a loop-based batch API for free, so batch-aware
    # callers (the benchmark harness, the sharded front-end, the database
    # integrations) can be written once against ``DynamicGraphStore``.
    # Implementations that can do better -- for example
    # :class:`repro.core.sharded.ShardedCuckooGraph`, which groups a batch
    # per shard to amortize routing -- override these with the same
    # signatures and semantics.

    def insert_edges(self, edges: Iterable[tuple[int, int]]) -> int:
        """Insert a batch of edges; return the number that were new."""
        insert = self.insert_edge
        inserted = 0
        for u, v in edges:
            if insert(u, v):
                inserted += 1
        return inserted

    def delete_edges(self, edges: Iterable[tuple[int, int]]) -> int:
        """Delete a batch of edges; return the number that were present."""
        delete = self.delete_edge
        deleted = 0
        for u, v in edges:
            if delete(u, v):
                deleted += 1
        return deleted

    def has_edges(self, edges: Iterable[tuple[int, int]]) -> list[bool]:
        """Membership of a batch of edges, in input order."""
        return list(starmap(self.has_edge, edges))

    def successors_many(self, nodes: Iterable[int]) -> dict[int, list[int]]:
        """Successor lists for a batch of source nodes.

        Contract (binding on every override):

        * the result maps each *distinct* requested node to its successor
          list, keyed in first-occurrence order of the input;
        * unknown nodes map to an empty list, never a missing key;
        * each list has exactly the contents and order ``successors`` would
          return for that node at the same point in time.

        Callers fan a whole frontier out in one call instead of one
        ``successors`` round-trip per node; the analytics engine
        (:class:`repro.analytics.engine.TraversalEngine`) relies on these
        guarantees to keep kernel outputs identical to per-node traversal.
        """
        successors = self.successors
        return {u: successors(u) for u in dict.fromkeys(nodes)}


class WeightedGraphStore(DynamicGraphStore):
    """Contract extension for stores that keep per-edge weights.

    The extended CuckooGraph of Section III-B increments a weight when a
    duplicate edge arrives; deleting decrements the weight and removes the
    edge once it reaches zero.
    """

    weighted = True

    @abstractmethod
    def edge_weight(self, u: int, v: int) -> int:
        """Current weight of ``⟨u, v⟩`` (0 if the edge is absent)."""

    def insert_weighted_edge(self, u: int, v: int, delta: int = 1) -> int:
        """Insert ``⟨u, v⟩`` or bump its weight by ``delta``; return the new weight."""
        raise NotImplementedError


class DelegatingStore(DynamicGraphStore):
    """A store that forwards the whole contract to the store it wraps.

    Every member a store answers in its own way -- the single and batch
    operations, ``edges``/``source_nodes``/``num_edges``/``memory_bytes``,
    ``accesses``, ``counters``, ``structure_summary``, ``weighted``,
    ``num_shards``, ``edge_weight`` and ``spawn_empty`` -- goes to
    ``self._store`` unchanged.  What the contract derives from those stays
    derived: routing (``shard_of``, ``partition_edges``) from ``num_shards``,
    and the group appliers (``insert_groups``/``delete_groups``) from
    ``insert_edges``/``delete_edges``, so a subclass that intercepts the
    batch mutations intercepts the groups as well.

    ``close`` marks only the wrapper closed; a subclass that owns the
    wrapped store closes it too.
    """

    def __init__(self, store: DynamicGraphStore):
        self._store = store

    @property
    def num_shards(self) -> int:
        return self._store.num_shards

    @property
    def weighted(self) -> bool:
        return self._store.weighted

    @property
    def accesses(self) -> int:
        return self._store.accesses

    def reset_accesses(self) -> None:
        self._store.reset_accesses()

    @property
    def counters(self):
        return self._store.counters

    def structure_summary(self) -> dict[str, object]:
        return self._store.structure_summary()

    def spawn_empty(self) -> DynamicGraphStore:
        return self._store.spawn_empty()

    def insert_edge(self, u: int, v: int) -> bool:
        return self._store.insert_edge(u, v)

    def delete_edge(self, u: int, v: int) -> bool:
        return self._store.delete_edge(u, v)

    def has_edge(self, u: int, v: int) -> bool:
        return self._store.has_edge(u, v)

    def successors(self, u: int) -> list[int]:
        return self._store.successors(u)

    def out_degree(self, u: int) -> int:
        return self._store.out_degree(u)

    def has_node(self, u: int) -> bool:
        return self._store.has_node(u)

    def edge_weight(self, u: int, v: int) -> int:
        return self._store.edge_weight(u, v)

    def insert_edges(self, edges: Iterable[tuple[int, int]]) -> int:
        return self._store.insert_edges(edges)

    def delete_edges(self, edges: Iterable[tuple[int, int]]) -> int:
        return self._store.delete_edges(edges)

    def has_edges(self, edges: Iterable[tuple[int, int]]) -> list[bool]:
        return self._store.has_edges(edges)

    def successors_many(self, nodes: Iterable[int]) -> dict[int, list[int]]:
        return self._store.successors_many(nodes)

    def edges(self) -> Iterator[tuple[int, int]]:
        return self._store.edges()

    def source_nodes(self) -> Iterator[int]:
        return self._store.source_nodes()

    @property
    def num_edges(self) -> int:
        return self._store.num_edges

    def memory_bytes(self) -> int:
        return self._store.memory_bytes()


def _itself(node: int) -> int:
    return node


class PartitionedStore(DynamicGraphStore):
    """A store made of one independent store per shard.

    ``self.shards[i]`` (built by the subclass, beside ``num_shards``) holds
    the sources :func:`shard_index` routes to shard *i*.  This base routes
    the single operations, groups a batch per shard (:func:`partition`,
    first-seen shard order), scatters ``has_edges`` answers back to input
    order, re-keys ``successors_many`` to first-occurrence order, sums
    ``edges``, ``source_nodes``, ``num_edges``, ``memory_bytes`` and
    ``accesses`` shard by shard, and closes the shards with itself.

    Every operation reaches a shard through one hook, :meth:`_serve` --
    once per single operation and once per group of a batch, before the
    group runs -- and a group runs through the shard store's own batch
    method.  A closed partitioned store refuses batch calls
    (:class:`~repro.core.errors.StoreClosedError`); whether it still serves
    single operations is the hook's decision.
    """

    #: One store per shard, in shard order.
    shards: list[DynamicGraphStore]

    def _serve(self, index: int, count: int, mutating: bool) -> DynamicGraphStore:
        """The store that serves shard ``index`` for ``count`` operations,
        ``mutating`` or not."""
        return self.shards[index]

    # ------------------------------------------------------------------ #
    # Single operations: one shard each
    # ------------------------------------------------------------------ #

    def insert_edge(self, u: int, v: int) -> bool:
        return self._serve(shard_index(u, self.num_shards), 1, True).insert_edge(u, v)

    def delete_edge(self, u: int, v: int) -> bool:
        return self._serve(shard_index(u, self.num_shards), 1, True).delete_edge(u, v)

    def has_edge(self, u: int, v: int) -> bool:
        return self._serve(shard_index(u, self.num_shards), 1, False).has_edge(u, v)

    def successors(self, u: int) -> list[int]:
        return self._serve(shard_index(u, self.num_shards), 1, False).successors(u)

    def out_degree(self, u: int) -> int:
        return self._serve(shard_index(u, self.num_shards), 1, False).out_degree(u)

    def has_node(self, u: int) -> bool:
        return self._serve(shard_index(u, self.num_shards), 1, False).has_node(u)

    # ------------------------------------------------------------------ #
    # Batches: one call per shard group
    # ------------------------------------------------------------------ #

    def insert_groups(self, groups: dict[int, list[tuple[int, int]]]) -> int:
        self._check_open("batch operations")
        serve = self._serve
        inserted = 0
        for index, group in groups.items():
            inserted += serve(index, len(group), True).insert_edges(group)
        return inserted

    def delete_groups(self, groups: dict[int, list[tuple[int, int]]]) -> int:
        self._check_open("batch operations")
        serve = self._serve
        deleted = 0
        for index, group in groups.items():
            deleted += serve(index, len(group), True).delete_edges(group)
        return deleted

    def insert_edges(self, edges: Iterable[tuple[int, int]]) -> int:
        return self.insert_groups(self.partition_edges(edges))

    def delete_edges(self, edges: Iterable[tuple[int, int]]) -> int:
        return self.delete_groups(self.partition_edges(edges))

    def has_edges(self, edges: Iterable[tuple[int, int]]) -> list[bool]:
        self._check_open("batch operations")
        edges = list(edges)
        serve = self._serve
        groups = partition(range(len(edges)), self.num_shards,
                           node=lambda position: edges[position][0])
        if len(groups) == 1:  # one shard's answers are already in input order
            (index, positions), = groups.items()
            return serve(index, len(positions), False).has_edges(edges)
        answers = [False] * len(edges)
        for index, positions in groups.items():
            found = serve(index, len(positions), False).has_edges(
                list(map(edges.__getitem__, positions)))
            for position, answer in zip(positions, found):
                answers[position] = answer
        return answers

    def successors_many(self, nodes: Iterable[int]) -> dict[int, list[int]]:
        self._check_open("batch operations")
        ordered = list(dict.fromkeys(nodes))
        serve = self._serve
        groups = partition(ordered, self.num_shards, node=_itself)
        if len(groups) == 1:  # one shard's answer is already keyed in input order
            (index, group), = groups.items()
            return serve(index, len(group), False).successors_many(group)
        gathered: dict[int, list[int]] = {}
        for index, group in groups.items():
            gathered.update(serve(index, len(group), False).successors_many(group))
        return {u: gathered[u] for u in ordered}

    # ------------------------------------------------------------------ #
    # Aggregates and lifecycle
    # ------------------------------------------------------------------ #

    def edges(self) -> Iterator[tuple[int, int]]:
        for store in self.shards:
            yield from store.edges()

    def source_nodes(self) -> Iterator[int]:
        for store in self.shards:
            yield from store.source_nodes()

    @property
    def num_edges(self) -> int:
        return sum(store.num_edges for store in self.shards)

    def memory_bytes(self) -> int:
        return sum(store.memory_bytes() for store in self.shards)

    @property
    def accesses(self) -> int:
        return sum(store.accesses for store in self.shards)

    def reset_accesses(self) -> None:
        for store in self.shards:
            store.reset_accesses()

    def close(self) -> None:
        """Close every shard store; batch calls are refused from here on.
        Idempotent."""
        if self._closed:
            return
        self._closed = True
        for store in self.shards:
            store.close()
