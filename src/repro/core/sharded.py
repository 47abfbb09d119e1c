"""Sharded front-end: hash-partitioning CuckooGraph for scale-out workloads.

The paper evaluates a single CuckooGraph instance; scaling the reproduction
toward "heavy traffic" service means routing operations across *independent*
partitions, the same way clustered/partitioned worker designs split a global
problem into per-cluster sub-problems.  :class:`ShardedCuckooGraph` implements
that front-end:

* **Partitioning.**  Every directed edge ``⟨u, v⟩`` lives on the shard owned
  by its *source* node ``u``.  The shard index is a deterministic
  multiply-shift hash of ``u`` reduced modulo the shard count, so the same
  node always lands on the same shard -- across operations, across instances
  and across processes.  Because all of ``u``'s out-edges share a shard,
  ``successors(u)`` and ``out_degree(u)`` are single-shard operations.

* **Independence.**  Each shard is a complete :class:`~repro.core.graph.CuckooGraph`
  (or :class:`~repro.core.weighted.WeightedCuckooGraph`) with its own hash
  family, denylists and counters; shards never coordinate.  This is exactly
  the property that lets a deployment place shards on separate cores or
  machines.

* **Batching.**  The batch operations (:meth:`insert_edges`,
  :meth:`delete_edges`, :meth:`has_edges`, :meth:`successors_many`) group a
  request stream per shard first and then drain each group with the shard's
  bound method, amortizing routing, attribute lookups and dispatch over the
  whole group instead of paying them per edge.  Results are scattered back in
  input order where order matters (:meth:`has_edges`).  For the mutations the
  two halves are public -- :meth:`partition_edges`, then
  :meth:`insert_groups`/:meth:`delete_groups` -- so a wrapper that needs the
  routing itself (the write-ahead log keeps one segment per shard) routes a
  batch once and hands the groups back.

* **Pluggable executor.**  ``executor="serial"`` (default) drains the
  per-shard groups one after another; ``executor="threads"`` submits each
  group to a shared thread pool so independent shards execute concurrently.
  Because a group only ever touches its own shard, no locking is needed, and
  results are merged in the same deterministic per-shard order as the serial
  path, so return values, counters and modelled accesses are identical
  between the executors (``tests/core/test_differential.py`` enforces
  this).  Under CPython's GIL the pure-Python shards do not speed up
  wall-clock under threads; ``executor="processes"`` is the executor that
  does: a long-lived pool of worker processes (see
  :mod:`~repro.core.shard_worker`) each *owns* its shards' state, the
  parent ships per-shard batch groups over the WAL op encoding
  (:func:`repro.persist.wal.encode_edge_ops`) and merges results, counters and
  accesses back deterministically -- N shards on N cores, observably
  identical to the serial executor.

* **Aggregation.**  ``accesses``, ``counters``, ``memory_bytes`` and
  ``structure_summary`` combine the per-shard quantities, so the sharded
  store drops into every benchmark template and memory experiment unchanged.

The class implements :class:`repro.interfaces.DynamicGraphStore` and passes
the same store-contract and differential suites as the single-instance
structures (see ``tests/core/test_sharded.py`` and
``tests/core/test_differential.py``).
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterable, Iterator, Optional, TypeVar

from ..interfaces import DynamicGraphStore, WeightedGraphStore
from .config import CuckooGraphConfig, PAPER_CONFIG
from .counters import Counters
from .errors import ConfigurationError, StoreClosedError
from .graph import CuckooGraph
from .weighted import WeightedCuckooGraph

_MASK64 = 0xFFFFFFFFFFFFFFFF

#: Executor names accepted by :class:`ShardedCuckooGraph`.
EXECUTORS = ("serial", "threads", "processes")

_T = TypeVar("_T")

#: Fixed odd multiplier for the shard-routing hash (multiply-shift).  It is a
#: constant -- not drawn from a seeded RNG -- so that routing is stable across
#: instances, which the rebalancing-free scale-out story depends on.
_ROUTE_MULTIPLIER = 0x9E3779B97F4A7C15


def shard_index(node: int, num_shards: int) -> int:
    """Deterministic shard index of a source node.

    A multiply-shift hash decorrelates the shard choice from the low bits of
    the node id (sequential ids would otherwise stripe shards), and the high
    32 bits are reduced modulo the shard count.
    """
    return (((node * _ROUTE_MULTIPLIER) & _MASK64) >> 32) % num_shards


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
            Not supported with ``executor="processes"`` (shards are built
            inside the workers from the picklable config).
        executor: ``"serial"`` drains per-shard batch groups sequentially;
            ``"threads"`` fans them out over a shared thread pool (one worker
            per shard by default); ``"processes"`` routes them to a pool of
            long-lived worker processes that own the shard state (true
            multicore -- see :mod:`~repro.core.shard_worker`).  Results,
            counters and accesses are identical in every case.
        max_workers: Pool size for ``executor="threads"``/``"processes"``;
            defaults to the shard count.  Ignored by the serial executor.

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
        executor: str = "serial",
        max_workers: Optional[int] = None,
    ):
        if num_shards < 1:
            raise ConfigurationError(f"num_shards must be >= 1, got {num_shards}")
        if executor not in EXECUTORS:
            raise ConfigurationError(
                f"executor must be one of {EXECUTORS}, got {executor!r}"
            )
        self.config = config if config is not None else PAPER_CONFIG
        self.num_shards = num_shards
        self.executor = executor
        self._max_workers = max_workers if max_workers is not None else num_shards
        self._pool: Optional[ThreadPoolExecutor] = None
        self._procs = None  # ShardWorkerPool under executor="processes"
        self._closed = False
        if executor == "processes":
            if shard_factory is not None:
                raise ConfigurationError(
                    "shard_factory is not supported with executor='processes': "
                    "shards are built inside the worker processes from the "
                    "picklable config (use weighted=True for weighted shards)"
                )
            # Deferred import: repro.persist (which the worker RPC encoding
            # lives in) imports this module during package initialisation.
            from .shard_worker import ShardWorkerPool

            self.weighted = weighted
            #: Empty under the processes executor: shard state lives in (and
            #: never leaves) the worker processes.
            self.shards: list[CuckooGraph] = []
            self._procs = ShardWorkerPool(
                num_shards=num_shards,
                config=self.config,
                weighted=weighted,
                max_workers=self._max_workers,
            )
            return
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
    # Executor
    # ------------------------------------------------------------------ #

    def _ensure_pool(self) -> ThreadPoolExecutor:
        """The shared thread pool, created on first threaded batch."""
        if self._closed:
            raise StoreClosedError(f"{self.name} is closed")
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self._max_workers, thread_name_prefix="cuckoo-shard"
            )
        return self._pool

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has been called."""
        return self._closed

    def close(self) -> None:
        """Release the executor for good.  Idempotent.

        After ``close`` the batch operations raise :class:`StoreClosedError`
        instead of lazily resurrecting the thread pool (double-``close`` and
        close-then-batch used to race exactly there); the single-operation
        read/write paths never involve the executor and keep working, so
        callers can still inspect a closed store.

        Under ``executor="processes"`` close is fully terminal: the shard
        state lives in the worker processes, so once they are shut down
        *every* operation -- single reads included -- raises
        :class:`StoreClosedError`.
        """
        if self._closed:
            return
        self._closed = True
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        if self._procs is not None:
            self._procs.close()

    def __enter__(self) -> "ShardedCuckooGraph":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _run_per_shard(
        self, groups: dict[int, list], worker: Callable[[int, list], _T]
    ) -> list[tuple[int, _T]]:
        """Run ``worker(shard_index, payloads)`` for every group.

        Returns ``(shard index, worker result)`` pairs in the groups'
        first-seen order -- the same order the serial loop produces -- so
        every caller merges deterministically regardless of executor.  Each
        group touches only its own shard, which is what makes the threaded
        fan-out safe without locks.

        Exception caveat: if a worker raises, the serial path stops before
        later groups run, while the threaded path has already submitted every
        group and lets them finish before re-raising the first failure --
        post-exception shard state is therefore executor-dependent.  The
        stock shard operations never raise on well-formed edges, so this only
        matters for custom ``shard_factory`` stores with failing updates.
        """
        if self._closed:
            raise StoreClosedError(
                f"{self.name} is closed; batch operations are no longer accepted"
            )
        if self.executor == "threads" and len(groups) > 1:
            pool = self._ensure_pool()
            futures = [
                (index, pool.submit(worker, index, group))
                for index, group in groups.items()
            ]
            return [(index, future.result()) for index, future in futures]
        return [(index, worker(index, group)) for index, group in groups.items()]

    # ------------------------------------------------------------------ #
    # Process-executor RPC plumbing
    # ------------------------------------------------------------------ #

    def _proc_single(self, u: int, name: str, args: tuple):
        """One single-shard operation over the worker RPC."""
        procs = self._procs
        index = shard_index(u, self.num_shards)
        return procs.request(procs.worker_of[index], "call", (index, name, args))

    def _proc_groups(self, groups: dict[int, list], method: str,
                     encode: Callable[[list], bytes]) -> dict[int, object]:
        """Scatter per-shard batch groups to their owning workers.

        Each worker receives exactly one request carrying all of its shard
        groups (encoded with the WAL codecs) -- one in-flight run per shard
        group -- and the per-shard results come back keyed by shard index,
        so callers merge in the same first-seen group order as the serial
        executor.
        """
        procs = self._procs
        per_worker: dict[int, list] = {}
        for index, group in groups.items():
            per_worker.setdefault(procs.worker_of[index], []).append(
                (index, encode(group))
            )
        responses = procs.scatter(
            {worker_id: (method, payload)
             for worker_id, payload in per_worker.items()}
        )
        results: dict[int, object] = {}
        for worker_id, payload in per_worker.items():
            for (index, _), result in zip(payload, responses[worker_id]):
                results[index] = result
        return results

    def _proc_merged(self, method: str, payload=None) -> dict[int, object]:
        """Broadcast ``method`` to every worker; merge per-shard responses."""
        merged: dict[int, object] = {}
        for part in self._procs.scatter_all(method, payload).values():
            merged.update(part)
        return merged

    # ------------------------------------------------------------------ #
    # Routing
    # ------------------------------------------------------------------ #

    def spawn_empty(self) -> "ShardedCuckooGraph":
        """Fresh empty front-end with the same shard count, config and executor.

        A custom ``shard_factory`` is not propagated (it may close over
        state); the ``weighted`` flag carries the common case.
        """
        return ShardedCuckooGraph(
            num_shards=self.num_shards,
            config=self.config,
            weighted=self.weighted,
            executor=self.executor,
            max_workers=self._max_workers,
        )

    def shard_of(self, u: int) -> int:
        """Shard index owning source node ``u`` (stable for the graph's lifetime)."""
        return shard_index(u, self.num_shards)

    def _shard(self, u: int) -> CuckooGraph:
        return self.shards[shard_index(u, self.num_shards)]

    def _partition(self, pairs: Iterable[tuple[int, object]]) -> dict[int, list]:
        """Group ``(routing node, payload)`` pairs per owning shard.

        What the batch reads route through (the mutations have
        :meth:`partition_edges`); the expression is the inlined body of
        :func:`shard_index` (kept inline so the per-item cost stays one
        multiply, not a function call).  Per-shard payload order follows
        input order.
        """
        num_shards = self.num_shards
        groups: dict[int, list] = {}
        for node, payload in pairs:
            index = (((node * _ROUTE_MULTIPLIER) & _MASK64) >> 32) % num_shards
            group = groups.get(index)
            if group is None:
                groups[index] = [payload]
            else:
                group.append(payload)
        return groups

    # ------------------------------------------------------------------ #
    # DynamicGraphStore API (single-operation paths)
    # ------------------------------------------------------------------ #

    def insert_edge(self, u: int, v: int) -> bool:
        """Insert ``⟨u, v⟩`` on the shard owning ``u``."""
        if self._procs is not None:
            return self._proc_single(u, "insert_edge", (u, v))
        return self._shard(u).insert_edge(u, v)

    def has_edge(self, u: int, v: int) -> bool:
        """Whether ``⟨u, v⟩`` is stored (probes exactly one shard)."""
        if self._procs is not None:
            return self._proc_single(u, "has_edge", (u, v))
        return self._shard(u).has_edge(u, v)

    def delete_edge(self, u: int, v: int) -> bool:
        """Delete ``⟨u, v⟩`` from the shard owning ``u``."""
        if self._procs is not None:
            return self._proc_single(u, "delete_edge", (u, v))
        return self._shard(u).delete_edge(u, v)

    def successors(self, u: int) -> list[int]:
        """Out-neighbours of ``u`` -- a single-shard lookup by construction."""
        if self._procs is not None:
            return self._proc_single(u, "successors", (u,))
        return self._shard(u).successors(u)

    def out_degree(self, u: int) -> int:
        """Out-degree of ``u`` without materialising the successor list."""
        if self._procs is not None:
            return self._proc_single(u, "out_degree", (u,))
        return self._shard(u).out_degree(u)

    def has_node(self, u: int) -> bool:
        """Whether ``u`` is currently stored as a source node."""
        if self._procs is not None:
            return self._proc_single(u, "has_node", (u,))
        return self._shard(u).has_node(u)

    def source_nodes(self) -> Iterator[int]:
        """Iterate over source nodes, shard by shard."""
        if self._procs is not None:
            merged = self._proc_merged("dump", "source_nodes")
            for index in range(self.num_shards):
                yield from merged[index]
            return
        for shard in self.shards:
            yield from shard.source_nodes()

    def edges(self) -> Iterator[tuple[int, int]]:
        """Iterate over every stored directed edge, shard by shard."""
        if self._procs is not None:
            merged = self._proc_merged("dump", "edges")
            for index in range(self.num_shards):
                yield from merged[index]
            return
        for shard in self.shards:
            yield from shard.edges()

    @property
    def num_edges(self) -> int:
        """Number of distinct directed edges across all shards."""
        if self._procs is not None:
            return sum(stats["num_edges"]
                       for stats in self._proc_merged("stats").values())
        return sum(shard.num_edges for shard in self.shards)

    @property
    def num_source_nodes(self) -> int:
        """Number of distinct source nodes across all shards."""
        if self._procs is not None:
            return sum(stats["num_source_nodes"]
                       for stats in self._proc_merged("stats").values())
        return sum(shard.num_source_nodes for shard in self.shards)

    # ------------------------------------------------------------------ #
    # Batch operations (the point of the front-end)
    # ------------------------------------------------------------------ #

    def partition_edges(
        self, edges: Iterable[tuple[int, int]]
    ) -> dict[int, list[tuple[int, int]]]:
        """Group a mutation batch per owning shard: ``{shard index: edges}``.

        Together with :meth:`insert_groups`/:meth:`delete_groups` this is the
        public seam of the batch mutations: ``insert_edges(edges)`` *is*
        ``insert_groups(partition_edges(edges))``.  A caller that needs the
        routing for its own purposes -- :class:`~repro.persist.PersistentStore`
        writes one WAL record per group -- partitions once and hands the same
        groups back, instead of re-deriving them through :meth:`shard_of`.
        Groups appear in first-seen order and keep input order within.
        """
        num_shards = self.num_shards
        groups: dict[int, list[tuple[int, int]]] = {}
        for edge in edges:
            index = (((edge[0] * _ROUTE_MULTIPLIER) & _MASK64) >> 32) % num_shards
            group = groups.get(index)
            if group is None:
                groups[index] = [edge]
            else:
                group.append(edge)
        return groups

    def _proc_apply(self, groups: dict[int, list], tag: str) -> int:
        """Ship mutation groups to the workers as WAL-encoded op records."""
        from ..persist.wal import encode_edge_ops

        results = self._proc_groups(
            groups, "apply", lambda group: encode_edge_ops(tag, group))
        return sum(results.values())

    def insert_groups(self, groups: dict[int, list[tuple[int, int]]]) -> int:
        """Insert :meth:`partition_edges` groups; return how many edges were new."""
        if self._procs is not None:
            from ..persist.wal import INSERT

            return self._proc_apply(groups, INSERT)
        shards = self.shards

        def worker(index: int, group: list) -> int:
            insert = shards[index].insert_edge
            inserted = 0
            for u, v in group:
                if insert(u, v):
                    inserted += 1
            return inserted

        return sum(count for _, count in self._run_per_shard(groups, worker))

    def delete_groups(self, groups: dict[int, list[tuple[int, int]]]) -> int:
        """Delete :meth:`partition_edges` groups; return how many edges were present."""
        if self._procs is not None:
            from ..persist.wal import DELETE

            return self._proc_apply(groups, DELETE)
        shards = self.shards

        def worker(index: int, group: list) -> int:
            delete = shards[index].delete_edge
            deleted = 0
            for u, v in group:
                if delete(u, v):
                    deleted += 1
            return deleted

        return sum(count for _, count in self._run_per_shard(groups, worker))

    def insert_edges(self, edges: Iterable[tuple[int, int]]) -> int:
        """Insert a batch of edges grouped per shard; return how many were new."""
        return self.insert_groups(self.partition_edges(edges))

    def delete_edges(self, edges: Iterable[tuple[int, int]]) -> int:
        """Delete a batch of edges grouped per shard; return how many were present."""
        return self.delete_groups(self.partition_edges(edges))

    def has_edges(self, edges: Iterable[tuple[int, int]]) -> list[bool]:
        """Membership of a batch of edges, in input order.

        The batch is routed per shard, each group is answered with the
        shard's bound ``has_edge`` (concurrently under the threaded
        executor), and the answers are scattered back to the positions the
        caller supplied.
        """
        edges = list(edges)
        if self._procs is not None:
            from ..persist.wal import encode_edges

            groups = self._partition(
                (edge[0], position) for position, edge in enumerate(edges)
            )
            results = self._proc_groups(
                groups, "has_edges",
                lambda positions: encode_edges(edges[p] for p in positions),
            )
            answers: list[bool] = [False] * len(edges)
            for index, positions in groups.items():
                for position, answer in zip(positions, results[index]):
                    answers[position] = answer
            return answers
        shards = self.shards

        def worker(index: int, positions: list) -> list[bool]:
            query = shards[index].has_edge
            return [query(*edges[position]) for position in positions]

        groups = self._partition(
            (edge[0], position) for position, edge in enumerate(edges)
        )
        answers: list[bool] = [False] * len(edges)
        for index, group_answers in self._run_per_shard(groups, worker):
            for position, answer in zip(groups[index], group_answers):
                answers[position] = answer
        return answers

    def successors_many(self, nodes: Iterable[int]) -> dict[int, list[int]]:
        """Successor lists for a batch of distinct source nodes, per shard.

        Honours the :class:`~repro.interfaces.DynamicGraphStore` batch
        contract: keys are the distinct requested nodes in first-occurrence
        order of the input (the per-shard answers are re-keyed back to that
        order), unknown nodes map to empty lists, and each list equals what
        ``successors`` would return.
        """
        ordered = list(dict.fromkeys(nodes))
        if self._procs is not None:
            from ..persist.wal import encode_nodes

            groups = self._partition((u, u) for u in ordered)
            results = self._proc_groups(groups, "successors_many", encode_nodes)
            gathered: dict[int, list[int]] = {}
            for index, group in groups.items():
                for u, succ in zip(group, results[index]):
                    gathered[u] = succ
            return {u: gathered[u] for u in ordered}
        shards = self.shards

        def worker(index: int, group: list) -> list[list[int]]:
            successors = shards[index].successors
            return [successors(u) for u in group]

        groups = self._partition((u, u) for u in ordered)
        gathered: dict[int, list[int]] = {}
        for index, group_lists in self._run_per_shard(groups, worker):
            for u, succ in zip(groups[index], group_lists):
                gathered[u] = succ
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
        if self._procs is not None:
            return self._proc_single(u, "insert_weighted_edge", (u, v, delta))
        return self._shard(u).insert_weighted_edge(u, v, delta)

    def edge_weight(self, u: int, v: int) -> int:
        """Current weight of ``⟨u, v⟩`` (0 if the edge is absent)."""
        self._require_weighted()
        if self._procs is not None:
            return self._proc_single(u, "edge_weight", (u, v))
        return self._shard(u).edge_weight(u, v)

    def weighted_edges(self) -> Iterator[tuple[int, int, int]]:
        """Iterate over ``(u, v, w)`` triples, shard by shard."""
        self._require_weighted()
        if self._procs is not None:
            merged = self._proc_merged("dump", "weighted_edges")
            for index in range(self.num_shards):
                yield from merged[index]
            return
        for shard in self.shards:
            yield from shard.weighted_edges()

    # ------------------------------------------------------------------ #
    # Aggregated accounting
    # ------------------------------------------------------------------ #

    @property
    def accesses(self) -> int:
        """Modelled memory accesses summed over every shard."""
        if self._procs is not None:
            return sum(stats["accesses"]
                       for stats in self._proc_merged("stats").values())
        return sum(shard.accesses for shard in self.shards)

    def reset_accesses(self) -> None:
        """Zero the modelled memory-access counter of every shard."""
        if self._procs is not None:
            self._procs.scatter_all("reset_accesses")
            return
        for shard in self.shards:
            shard.reset_accesses()

    @property
    def counters(self) -> Counters:
        """Aggregated operation counters (a fresh sum; do not mutate)."""
        total = Counters()
        if self._procs is not None:
            merged = self._proc_merged("counters")
            for index in range(self.num_shards):
                total = total + merged[index]
            return total
        for shard in self.shards:
            total = total + shard.counters
        return total

    def memory_bytes(self) -> int:
        """Modelled memory footprint summed over every shard."""
        if self._procs is not None:
            return sum(stats["memory_bytes"]
                       for stats in self._proc_merged("stats").values())
        return sum(shard.memory_bytes() for shard in self.shards)

    def shard_sizes(self) -> list[int]:
        """Edges per shard, in shard order (balance diagnostic)."""
        if self._procs is not None:
            stats = self._proc_merged("stats")
            return [stats[index]["num_edges"]
                    for index in range(self.num_shards)]
        return [shard.num_edges for shard in self.shards]

    def structure_summary(self) -> dict[str, object]:
        """Aggregate snapshot plus the per-shard summaries."""
        if self._procs is not None:
            stats = self._proc_merged("stats")
            summaries = self._proc_merged("summaries")
            return {
                "num_shards": self.num_shards,
                "num_edges": sum(s["num_edges"] for s in stats.values()),
                "num_source_nodes": sum(s["num_source_nodes"]
                                        for s in stats.values()),
                "shard_edge_counts": [stats[index]["num_edges"]
                                      for index in range(self.num_shards)],
                "memory_bytes": sum(s["memory_bytes"] for s in stats.values()),
                "shards": [summaries[index]
                           for index in range(self.num_shards)],
            }
        return {
            "num_shards": self.num_shards,
            "num_edges": self.num_edges,
            "num_source_nodes": self.num_source_nodes,
            "shard_edge_counts": self.shard_sizes(),
            "memory_bytes": self.memory_bytes(),
            "shards": [shard.structure_summary() for shard in self.shards],
        }
