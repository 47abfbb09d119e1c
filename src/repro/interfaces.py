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
``partition_edges`` from those two.
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
