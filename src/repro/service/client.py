"""Synchronous client facade over a :class:`GraphService`.

:class:`GraphClient` speaks the full
:class:`~repro.interfaces.DynamicGraphStore` contract, so anything written
against the store interface -- the benchmark harness, the analytics engine,
an example script -- can be pointed at a *service* instead of a raw
structure without changing a line.  Single-edge calls block on their future.
A batch call is a handful of *list requests*: its items are cut into chunks
-- ``service.max_batch`` items for a mutation, at most :data:`READ_CHUNK`
for a read -- each chunk travels as one request (one future, one queue hop,
one store call whose return value is the answer), and the chunks are
pipelined -- all submitted first, then collected -- so other clients'
requests interleave between them in FIFO order while this client waits once.

The client is a :class:`~repro.interfaces.DelegatingStore` over the served
store and overrides exactly the calls that travel through the service: the
single and batch operations, ``out_degree`` and ``has_node`` (answered
from ``successors``, so they queue like it), and the analytics jobs.
Everything else -- introspection (``edges``, ``source_nodes``,
``num_edges``, ``memory_bytes``, ``accesses``, ``counters``,
``structure_summary``) and ``spawn_empty`` (an empty store of the *served*
scheme: a subgraph extraction must not spin up a nested service) -- is
forwarded to the underlying store directly.  That is a deliberate trade:
those are snapshot/diagnostic reads used by benchmarks and reports on a
quiesced service; issuing them through the queue would serialize a full
scan behind traffic.  Call them only when no conflicting writes are in
flight.
``weighted`` stays ``False`` whatever the store: the service has no
weighted request kind.

``close()`` is terminal and idempotent: every call through the service
raises :class:`~repro.core.errors.StoreClosedError` afterwards, while the
forwarded introspection keeps working.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Optional, Union

from ..core.config import CuckooGraphConfig
from ..core.sharded import ShardedCuckooGraph
from ..interfaces import DelegatingStore, DynamicGraphStore
from .service import GraphService

#: Most items one list request of a batch *read* (``has_edges`` /
#: ``successors_many``) carries; ``max_batch`` still applies when smaller.
#: A mutation chunk is as large as the service allows because it amortises
#: a group commit.  A read chunk amortises only the queue hop, and is a read
#: run of its own: routed to the next replica, behind its own freshness
#: barrier.  Cutting reads this fine costs throughput (the hop is ~3 us an
#: item at 8 items, ~0.3 us at 128) and buys a bulk-read rate that repeats
#: from run to run: with 128-item chunks an 18 000-probe pass over a durable
#: replicated service is over in 40 ms, and ``benchmarks/perf`` read it as
#: 420 kops +- 10 %, wider than its bound; at 8 items it reads 190 kops
#: +- 2-4 % (CHANGES.md, PR 14).  Raise it when the rate matters more than
#: its spread.
READ_CHUNK = 8


class GraphClient(DelegatingStore):
    """Blocking :class:`DynamicGraphStore` view of a :class:`GraphService`.

    Args:
        service: The service to drive.  It is started if it is not running.
        close_service: Close the service when the client is closed / exits
            its context.  Defaults to ``False`` for a shared service.

    Example:
        >>> client = GraphClient.local(num_shards=2)
        >>> client.insert_edge(1, 2)
        True
        >>> client.successors(1)
        [2]
        >>> client.close()
    """

    name = "GraphServiceClient"

    #: The service has no weighted request kind.
    weighted = False

    def __init__(self, service: GraphService, *, close_service: bool = False):
        super().__init__(service.store)
        self._service = service
        self._close_service = close_service
        if not service.running and not service.closed:
            service.start()

    @classmethod
    def local(
        cls,
        num_shards: int = 4,
        config: Optional[CuckooGraphConfig] = None,
        **service_kwargs,
    ) -> "GraphClient":
        """Client over a fresh service owning a fresh ``ShardedCuckooGraph``."""
        store = ShardedCuckooGraph(num_shards=num_shards, config=config)
        service = GraphService(store, own_store=True, **service_kwargs)
        return cls(service.start(), close_service=True)

    @classmethod
    def durable(
        cls,
        path: Optional[Union[str, Path]] = None,
        num_shards: int = 4,
        config: Optional[CuckooGraphConfig] = None,
        **service_kwargs,
    ) -> "GraphClient":
        """Client over a group-committing durable service.

        The sharded store is wrapped in a
        :class:`~repro.persist.PersistentStore` (one WAL segment per shard,
        ``sync_on_commit=True``), and the service runs with
        ``durability="batch"``: each dispatched mutation run is one store
        commit, hence one group commit -- an fsync per WAL segment the run
        touched, at most ``num_shards``, in flight beside the apply and the
        runs dispatched after it, all returned before its futures resolve.  ``path=None`` keeps the
        store ephemeral (the directory is removed on close); a ``path``
        that already holds a persistent store is **recovered** first, so
        the same call works on the first run and on every restart
        (``num_shards`` must match the on-disk segmentation).
        """
        from ..persist import PersistentStore, open_or_create

        inner = ShardedCuckooGraph(num_shards=num_shards, config=config)
        if path is not None:
            store = open_or_create(path, store=inner, sync_on_commit=True,
                                   own_store=True)
        else:
            store = PersistentStore(
                path=None, store=inner, sync_on_commit=True, own_store=True
            )
        service = GraphService(
            store, own_store=True, durability="batch", **service_kwargs
        )
        return cls(service.start(), close_service=True)

    @property
    def service(self) -> GraphService:
        return self._service

    def close(self) -> None:
        """Terminal close.  Idempotent.

        The underlying service is closed too when this client owns it;
        either way, further operations through the client raise
        :class:`~repro.core.errors.StoreClosedError` (a non-owning client
        must not keep feeding a service it has declared itself done with).
        Quiesced introspection reads (``edges``, ``num_edges``, ...) keep
        working.
        """
        if self._closed:
            return
        self._closed = True
        if self._close_service:
            self._service.close()

    # ------------------------------------------------------------------ #
    # Single-operation paths: one request, block on its future
    # ------------------------------------------------------------------ #

    def insert_edge(self, u: int, v: int) -> bool:
        self._check_open()
        return self._service.insert_edge(u, v).result()

    def delete_edge(self, u: int, v: int) -> bool:
        self._check_open()
        return self._service.delete_edge(u, v).result()

    def has_edge(self, u: int, v: int) -> bool:
        self._check_open()
        return self._service.has_edge(u, v).result()

    def successors(self, u: int) -> list[int]:
        self._check_open()
        return self._service.successors(u).result()

    # Through ``successors``, i.e. the queue, not straight to the store.
    out_degree = DynamicGraphStore.out_degree
    has_node = DynamicGraphStore.has_node

    # ------------------------------------------------------------------ #
    # Batch paths: ceil(n / chunk) pipelined list requests
    # ------------------------------------------------------------------ #

    def _pipelined(self, submit, items: Iterable, size: int) -> list:
        """``submit`` one list request per ``size`` items of ``items`` --
        all of them before waiting on any -- and return their results."""
        self._check_open()
        items = list(items)
        futures = [submit(items[start:start + size])
                   for start in range(0, len(items), size)]
        return [future.result() for future in futures]

    @property
    def _read_chunk(self) -> int:
        return min(self._service.max_batch, READ_CHUNK)

    def insert_edges(self, edges: Iterable[tuple[int, int]]) -> int:
        return sum(self._pipelined(self._service.insert_edges, edges,
                                   self._service.max_batch))

    def delete_edges(self, edges: Iterable[tuple[int, int]]) -> int:
        return sum(self._pipelined(self._service.delete_edges, edges,
                                   self._service.max_batch))

    def has_edges(self, edges: Iterable[tuple[int, int]]) -> list[bool]:
        chunks = self._pipelined(self._service.has_edges, edges,
                                 self._read_chunk)
        return [answer for chunk in chunks for answer in chunk]

    def successors_many(self, nodes: Iterable[int]) -> dict[int, list[int]]:
        chunks = self._pipelined(self._service.successors_many,
                                 dict.fromkeys(nodes), self._read_chunk)
        return {u: successors for chunk in chunks
                for u, successors in chunk.items()}

    # ------------------------------------------------------------------ #
    # Analytics jobs (each runs store-side through a TraversalEngine)
    # ------------------------------------------------------------------ #

    def bfs(self, source: int, **kwargs) -> list[int]:
        self._check_open()
        return self._service.analytics("bfs", source, **kwargs).result()

    def sssp(self, source: int, **kwargs) -> dict[int, float]:
        self._check_open()
        return self._service.analytics("sssp", source, **kwargs).result()

    def pagerank(self, **kwargs) -> dict[int, float]:
        self._check_open()
        return self._service.analytics("pagerank", **kwargs).result()

    def components(self, **kwargs) -> list[list[int]]:
        self._check_open()
        return self._service.analytics("components", **kwargs).result()

    def wcc(self, **kwargs) -> list[list[int]]:
        """Weakly connected components in canonical form (delta-maintained
        when the service runs ``analytics="incremental"``)."""
        self._check_open()
        return self._service.analytics("wcc", **kwargs).result()

    def top_degree_nodes(self, count: int, **kwargs) -> list[int]:
        self._check_open()
        return self._service.analytics("top_degree_nodes", count, **kwargs).result()
