"""The request-queue front door over a batch-capable graph store.

:class:`GraphService` is the "heavy traffic" layer of the reproduction: many
client threads submit requests -- a single operation (insert / delete /
membership / successors), a *list* of up to ``max_batch`` of them, or a
whole analytics job -- and the service drives them through the store's batch
APIs -- ``insert_edges`` / ``delete_edges`` / ``has_edges`` /
``successors_many`` on a :class:`~repro.core.sharded.ShardedCuckooGraph` by
default, and the :class:`~repro.analytics.engine.TraversalEngine` for
analytics jobs.  Every request gets one
:class:`concurrent.futures.Future` that carries its result or exception
back, so clients never observe batching except as throughput.

Design points:

* **One dispatcher thread** owns the store, the followers and every future.
  Client threads only touch the bounded queue, so the store itself needs no
  locking.  The one thing the
  dispatcher does not sit through is a group commit's ``fsync``: the store's
  helper threads do, and all they do besides is wake the dispatcher.
* **Order-preserving batching.**  A dispatch window is split into runs (see
  :mod:`repro.service.batcher`): a list request is a run of its own,
  consecutive single requests of one kind coalesce into one.  Each run is
  one store batch call of at most ``max_batch`` items, so the executed
  schedule is exactly the submission order.  A list mutation resolves to
  the store's own count, and a lone single mutation to that count as a
  ``bool`` -- one store call.  Only a run of *several* single mutations
  needs per-request results the store does not return; those are recovered
  from a batched pre-probe (``has_edges``) plus in-window bookkeeping --
  two batch calls for the run, still zero per-operation store calls.
  (That attribution assumes distinct-edge store semantics; a weighted
  store still executes correctly but "delete actually removed the edge"
  degenerates to "edge was present".)
* **Pipelined acknowledgement** (``durability="batch"``).  A mutation run
  is logged, its fsyncs put in flight, applied in memory -- and the
  dispatcher moves on to the next run while the disk works.  The run's
  futures, its ``group_commits`` tick, the shipment to the replicas and the
  compaction check come later, on the dispatcher thread, strictly in commit
  order, once the fsyncs of that commit *and of every commit before it* have
  returned (the helper that finishes a commit's last fsync wakes the
  dispatcher through the queue's own condition: nothing polls, and a window
  waiting ``max_delay_s`` for stragglers acknowledges on that wake-up and
  goes on filling).
  Acknowledged => durable => shipped, exactly as before; what changed is
  who waits.  Submission order stays the contract for everything a client
  can observe: the service remembers which sources the unacknowledged
  commits wrote, and a ``has`` / ``successors`` run first acknowledges,
  waiting if it must, every commit that wrote one of *its* sources; an
  analytics job, which may read anything, acknowledges them all.  Reads of
  other sources are served at once -- from a replica they see the shipped
  prefix, and on the primary the only unacknowledged data lives under the
  sources they did not ask about.  A failed fsync fails its run, every run
  still unacknowledged behind it (once its own fsyncs have returned: nothing
  stays in flight) and every mutation still queued (those without touching
  the store); a refused apply is rolled back and fails its
  run alone, after the commits before it.  As many commits can be in flight
  as the store has helper threads (one per WAL segment).
* **Backpressure.**  The queue is bounded; ``policy="block"`` makes
  submitters wait (pushback), ``policy="reject"`` sheds load by raising
  :class:`~repro.service.errors.QueueFullError`.
* **Lifecycle.**  ``start`` launches the dispatcher, ``close`` stops intake,
  drains every queued request, waits out and acknowledges what is still in
  flight, resolves their futures and joins the thread;
  both are idempotent and the class is a context manager.  Submissions
  before ``start`` simply queue up (the first window then coalesces them),
  which the spy-store tests use to make batching deterministic.

Under CPython's GIL the dispatcher does not add parallel compute; the point
is the *traffic shape* -- bounded intake, coalesced store calls, percentile
latency accounting.
"""

from __future__ import annotations

import threading
from collections import deque
from functools import partial
from concurrent.futures import Future
from typing import Callable, Dict, Iterable, List, Optional

from ..analytics import (
    CachedTraversalEngine,
    TraversalEngine,
    bfs,
    canonical_components,
    canonical_pagerank,
    dijkstra,
    pagerank,
    strongly_connected_components,
    top_degree_nodes,
)
from ..core.sharded import ShardedCuckooGraph
from ..interfaces import DynamicGraphStore
from ..persist.store import PendingCommit, PersistentStore
from ..replicate import FRESHNESS_POLICIES, ReplicationGroup
from .batcher import CLOCK, KINDS, Request, gather_window, split_runs
from .errors import QueueFullError, ServiceClosedError, ServiceError
from .metrics import ServiceMetrics
from .queue import POLICIES, BoundedRequestQueue

#: Analytics jobs a service executes, each through a TraversalEngine so the
#: store sees batched frontier expansion, never per-node round-trips.
ANALYTICS_HANDLERS: Dict[str, Callable] = {
    "bfs": bfs,
    "sssp": dijkstra,
    "pagerank": pagerank,
    "components": strongly_connected_components,
    "wcc": canonical_components,
    "top_degree_nodes": top_degree_nodes,
}

#: Analytics execution modes: ``"engine"`` recomputes every job through a
#: fresh :class:`TraversalEngine`; ``"incremental"`` routes jobs to a
#: delta-maintained :class:`~repro.analytics.AnalyticsFollower` replica.
ANALYTICS_MODES = ("engine", "incremental")

#: Durability modes: ``"none"`` leaves persistence entirely to the store;
#: ``"batch"`` makes every dispatched mutation run one durable store commit
#: (a group commit), every fsync of which has returned *before* the run's
#: futures resolve.
DURABILITY_MODES = ("none", "batch")


class GraphService:
    """Micro-batching request service over a batch-capable graph store.

    Args:
        store: Any :class:`~repro.interfaces.DynamicGraphStore`; defaults to
            a fresh ``ShardedCuckooGraph(num_shards=4)``.  A store created
            here is owned (and closed) by the service; a caller-provided
            store is left open on :meth:`close` unless ``own_store=True``.
        max_batch: Upper bound on requests per dispatch window, on items
            per list request and therefore on items per store call.
        max_delay_s: How long a window may wait for stragglers after its
            first request; ``0`` (default) closes the window as soon as the
            queue runs dry, favouring latency.
        queue_capacity: Bound on queued (undispatched) *requests* -- up to
            ``queue_capacity * max_batch`` items when they are list requests.
        policy: Backpressure policy, ``"block"`` or ``"reject"``.
        own_store: Force (or forbid) closing the store on :meth:`close`.
        durability: ``"none"`` (default) or ``"batch"``.  With ``"batch"``
            the store must be a :class:`~repro.persist.PersistentStore`;
            the service sets its ``sync_on_commit`` (which syncs whatever
            was buffered), so a mutation run's one store call is one group
            commit: an fsync only per WAL segment the run touched, in
            flight beside the apply *and beside the runs dispatched after
            it*, all returned -- as are those of every earlier commit --
            before any of the run's futures resolve.  A failed fsync is
            fail-stop (:attr:`durability_failed`) for that run, the runs in
            flight behind it and the mutations still queued; a refused
            mutation fails its run alone.
        replicas: Number of read replicas (0 disables replication).  The
            store must then be a :class:`~repro.persist.PersistentStore`:
            the service builds a :class:`~repro.replicate.ReplicationGroup`
            over its WAL and routes read runs (``has`` / ``successors``)
            and analytics jobs round-robin across the followers, while
            every mutation stays on the primary.  Per-replica read counts
            and the observed replication lag land in :class:`ServiceMetrics`.
        freshness: Read policy with ``replicas > 0``:
            ``"read_your_writes"`` (default) runs the follower's barrier to
            the primary's commit index before serving, so a client that saw
            its mutation's future resolve always reads it back;
            ``"any"`` serves whatever the replica has applied (fsynced
            commits only: under ``durability="none"`` that is what the last
            checkpoint or barrier synced), trading staleness for not
            forcing a sync.
        analytics: ``"engine"`` (default) recomputes every analytics job
            from scratch through a fresh :class:`TraversalEngine`;
            ``"incremental"`` attaches a delta-maintained
            :class:`~repro.analytics.AnalyticsFollower` replica (the store
            must be a :class:`~repro.persist.PersistentStore`; works with
            ``replicas=0``) and routes analytics jobs to it at the
            configured ``freshness``.  ``pagerank``/``wcc``/
            ``top_degree_nodes`` are then served O(changes) from the
            maintained kernels, the rest through a cache-backed engine.
            Note the documented deviation: incremental ``pagerank`` returns
            the *canonical* deterministic formulation
            (:func:`~repro.analytics.canonical_pagerank`), whose float
            accumulation order is sorted-by-node rather than the legacy
            kernel's store-iteration order.
        replica_transport: Optional
            :class:`~repro.replicate.ReplicationTransport` the replication
            group's followers are connected through; defaults to the
            in-process queue transport.  Remote replicas do not use this
            seam -- they attach through a
            :class:`~repro.replicate.ReplicationServer` wrapped around
            ``service.replication.primary``.

    Example:
        >>> with GraphService() as service:
        ...     fut = service.insert_edge(1, 2)
        ...     fut.result()
        True
    """

    def __init__(
        self,
        store: Optional[DynamicGraphStore] = None,
        *,
        max_batch: int = 128,
        max_delay_s: float = 0.0,
        queue_capacity: int = 1024,
        policy: str = "block",
        own_store: Optional[bool] = None,
        durability: str = "none",
        replicas: int = 0,
        freshness: str = "read_your_writes",
        analytics: str = "engine",
        replica_transport=None,
    ):
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if max_delay_s < 0:
            raise ValueError(f"max_delay_s must be >= 0, got {max_delay_s}")
        if policy not in POLICIES:
            raise ValueError(f"policy must be one of {POLICIES}, got {policy!r}")
        if durability not in DURABILITY_MODES:
            raise ValueError(
                f"durability must be one of {DURABILITY_MODES}, got {durability!r}"
            )
        if replicas < 0:
            raise ValueError(f"replicas must be >= 0, got {replicas}")
        if freshness not in FRESHNESS_POLICIES:
            raise ValueError(
                f"freshness must be one of {FRESHNESS_POLICIES}, got {freshness!r}"
            )
        if analytics not in ANALYTICS_MODES:
            raise ValueError(
                f"analytics must be one of {ANALYTICS_MODES}, got {analytics!r}"
            )
        self._own_store = store is None if own_store is None else own_store
        self.store = store if store is not None else ShardedCuckooGraph(num_shards=4)
        self.freshness = freshness
        self.analytics_mode = analytics
        if replicas and not isinstance(self.store, PersistentStore):
            raise ValueError(
                "replicas need a PersistentStore to ship the WAL from; "
                "wrap the store in repro.persist.PersistentStore (or use "
                "GraphClient.durable(replicas=...))"
            )
        if analytics == "incremental" and not isinstance(self.store, PersistentStore):
            raise ValueError(
                'analytics="incremental" maintains its replica from the '
                "WAL change feed; wrap the store in "
                "repro.persist.PersistentStore (or use GraphClient.durable("
                'analytics="incremental"))'
            )
        self.durability = durability
        if durability == "batch":
            if not isinstance(self.store, PersistentStore):
                raise ValueError(
                    'durability="batch" needs a store whose commits sync '
                    "(wrap it in repro.persist.PersistentStore)"
                )
            # A mutation run is one store call: its commit is the group
            # commit.  Anything still buffered is synced by the switch.
            self.store.sync_on_commit = True
        self.max_batch = max_batch
        self.max_delay_s = max_delay_s
        self._queue = BoundedRequestQueue(capacity=queue_capacity, policy=policy)
        self.metrics = ServiceMetrics()
        self._thread: Optional[threading.Thread] = None
        self._closed = False
        self._durability_failed: Optional[Exception] = None
        self._lifecycle_lock = threading.Lock()
        # Pipelined acknowledgement (dispatcher thread only): the group
        # commits whose fsyncs are still in flight, oldest first, as
        # ``(sequence number, PendingCommit, run, results, items, store calls)``,
        # and ``source -> sequence number`` of the last of them that wrote it.
        self._unacked: deque = deque()
        self._commit_seq = 0
        self._writing: Dict[int, int] = {}
        # Built last: every other argument has been validated by now, so a
        # constructor failure can no longer leak followers (or leave an
        # orphaned primary subscribed to the store's feed and compaction policy).
        self._replication: Optional[ReplicationGroup] = (
            ReplicationGroup(self.store, replicas=replicas,
                             transport=replica_transport,
                             analytics=analytics == "incremental")
            if replicas or analytics == "incremental" else None
        )

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    @property
    def running(self) -> bool:
        """Whether the dispatcher thread is alive."""
        return self._thread is not None and self._thread.is_alive()

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has been called."""
        return self._closed

    @property
    def replication(self) -> Optional[ReplicationGroup]:
        """The replication group (``None`` when ``replicas=0`` and
        ``analytics="engine"``)."""
        return self._replication

    @property
    def analytics_follower(self):
        """The delta-maintained analytics replica, or ``None``."""
        return (
            self._replication.analytics_follower
            if self._replication is not None else None
        )

    @property
    def durability_failed(self) -> Optional[Exception]:
        """The fsync error that fail-stopped a ``durability="batch"`` service.

        ``None`` while the durable path is healthy.  Once set, submissions
        raise :class:`~repro.service.errors.ServiceError`; the right move
        is to close the service and :func:`repro.persist.recover` the store
        directory, whose contents are exactly the commits that fsynced.
        """
        return self._durability_failed

    def start(self) -> "GraphService":
        """Launch the dispatcher thread (idempotent until closed)."""
        with self._lifecycle_lock:
            if self._closed:
                raise ServiceClosedError("cannot start a closed GraphService")
            if self._thread is None:
                self._thread = threading.Thread(
                    target=self._dispatch_loop, name="graph-service", daemon=True
                )
                self._thread.start()
        return self

    def close(self) -> None:
        """Stop intake, drain in-flight requests, join the dispatcher.

        Idempotent.  Every request queued before ``close`` is still
        dispatched and its future resolved; requests submitted afterwards
        raise :class:`ServiceClosedError`.  If the service was never
        started, the queued futures are cancelled instead (there is no
        dispatcher to execute them).  An owned store is closed last.
        """
        with self._lifecycle_lock:
            if self._closed:
                return
            self._closed = True
            leftovers = self._queue.close()
            thread = self._thread
        if thread is not None:
            thread.join()
        else:
            for request in leftovers:
                if request.future.cancel():
                    self.metrics.record_cancelled()
        if self._replication is not None:
            self._replication.close()
        if self._own_store:
            self.store.close()

    def __enter__(self) -> "GraphService":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Submission API (any thread)
    # ------------------------------------------------------------------ #

    def submit(self, kind: str, payload: object) -> Future:
        """Enqueue one single-item request; the returned future carries its
        result or error.

        Raises:
            ServiceClosedError: the service is closed (or closes while a
                ``policy="block"`` submitter is waiting for queue space).
            QueueFullError: the queue is full under ``policy="reject"``.
            ValueError: unknown ``kind`` or unknown analytics task.
        """
        if kind not in KINDS:
            raise ValueError(f"unknown request kind {kind!r}")
        if kind == "analytics":
            task = payload[0]
            if task not in ANALYTICS_HANDLERS:
                raise ValueError(
                    f"unknown analytics task {task!r}; "
                    f"expected one of {sorted(ANALYTICS_HANDLERS)}"
                )
        return self._enqueue(Request(kind, payload), items=1)

    def _submit_list(self, kind: str, items: Iterable) -> Future:
        """Enqueue one list request of 1..``max_batch`` items."""
        items = list(items)
        if not 1 <= len(items) <= self.max_batch:
            raise ValueError(
                f"a list request carries 1..max_batch ({self.max_batch}) "
                f"items, got {len(items)}; split larger batches into "
                f"max_batch-sized calls (GraphClient does)"
            )
        return self._enqueue(Request(kind, items, single=False), len(items))

    def _fail_stopped(self) -> ServiceError:
        error = ServiceError(
            "durability group commit failed earlier; the service is "
            "fail-stopped (close it, then recover the store from disk)"
        )
        error.__cause__ = self._durability_failed
        return error

    def _enqueue(self, request: Request, items: int) -> Future:
        if self._closed:
            raise ServiceClosedError("GraphService is closed")
        if self._durability_failed is not None:
            raise self._fail_stopped()
        try:
            self._queue.put(request)
        except QueueFullError:
            self.metrics.record_rejected()
            raise
        # Counted only after a successful enqueue, so the ledger invariant
        # (submitted == resolved + failed + cancelled, rejected separate)
        # holds even when backpressure fires or a close races the put.
        self.metrics.record_submit(request.kind, items)
        return request.future

    def insert_edge(self, u: int, v: int) -> Future:
        """Future[bool]: was ``⟨u, v⟩`` newly inserted?"""
        return self.submit("insert", (u, v))

    def delete_edge(self, u: int, v: int) -> Future:
        """Future[bool]: was ``⟨u, v⟩`` present (and removed)?"""
        return self.submit("delete", (u, v))

    def has_edge(self, u: int, v: int) -> Future:
        """Future[bool]: is ``⟨u, v⟩`` stored?"""
        return self.submit("has", (u, v))

    def successors(self, u: int) -> Future:
        """Future[list[int]]: out-neighbours of ``u``."""
        return self.submit("successors", u)

    # List requests: one request, one future and one store call for up to
    # ``max_batch`` items.  More than that (or none) is refused with a
    # ValueError rather than split, so one call is always one future and
    # no store call ever exceeds ``max_batch``; :class:`GraphClient` does
    # the chunking.  Cancelling the future before dispatch skips the whole
    # request.

    def insert_edges(self, edges: Iterable[tuple[int, int]]) -> Future:
        """Future[int]: how many of ``edges`` were newly inserted."""
        return self._submit_list("insert", edges)

    def delete_edges(self, edges: Iterable[tuple[int, int]]) -> Future:
        """Future[int]: how many of ``edges`` were present (and removed)."""
        return self._submit_list("delete", edges)

    def has_edges(self, edges: Iterable[tuple[int, int]]) -> Future:
        """Future[list[bool]]: membership of ``edges``, in input order."""
        return self._submit_list("has", edges)

    def successors_many(self, nodes: Iterable[int]) -> Future:
        """Future[dict[int, list[int]]]: successor lists of the distinct
        ``nodes``, keyed in first-occurrence order."""
        return self._submit_list("successors", nodes)

    def analytics(self, task: str, *args, **kwargs) -> Future:
        """Future: run a whole analytics job (see :data:`ANALYTICS_HANDLERS`)."""
        return self.submit("analytics", (task, args, kwargs))

    def metrics_summary(self) -> Dict[str, object]:
        """Snapshot of request/batch/latency metrics (see ServiceMetrics)."""
        if self._replication is not None:
            # Failover-relevant health: followers the primary evicted because
            # their channel died mid-broadcast (never via a clean detach).
            self.metrics.record_evictions(self._replication.primary.evictions)
        # Hot/cold tier health when the service fronts a TieredStore --
        # directly or wrapped in a PersistentStore (whose ``.store`` is the
        # tiered structure).
        for candidate in (self.store, getattr(self.store, "store", None)):
            stats = getattr(candidate, "tier_stats", None)
            if callable(stats):
                self.metrics.record_tier_stats(stats())
                break
        return self.metrics.summary()

    @property
    def pending(self) -> int:
        """Requests queued but not yet picked up by the dispatcher."""
        return len(self._queue)

    # ------------------------------------------------------------------ #
    # Dispatcher (single thread)
    # ------------------------------------------------------------------ #

    def _dispatch_loop(self) -> None:
        queue, unacked = self._queue, self._unacked
        while True:
            # The helper that finishes the last fsync of a commit in flight
            # ends this wait: the window is then empty and the queue open (a
            # wake-up that comes after its commit was reaped does the same,
            # once); one that arrives while a window is filling reaps there.
            window = gather_window(queue, self.max_batch, self.max_delay_s, self._reap)
            if not window and queue.closed:
                break
            for kind, run in split_runs(window):
                if unacked:
                    self._reap()
                self._dispatch_run(kind, run)
            if unacked:
                self._reap()
        self._reap(self._commit_seq)

    def _reap(self, through: int = 0) -> None:
        """Acknowledge, oldest first, the group commits whose fsyncs have all
        returned; wait for those numbered up to ``through``.

        Commit order is the contract: the feed ships in it, so a run
        acknowledged ahead of an earlier one could be read back from a replica
        that cannot have it yet.  A failed fsync is fail-stop for everything
        behind it: promising durability for anything after it would be a lie
        (the OS may have dropped the unflushed write silently).
        """
        unacked = self._unacked
        while unacked:
            seq, pending, live, results, items, store_calls = unacked[0]
            if seq > through and not pending.done():
                return
            unacked.popleft()
            try:
                pending.finish(entry[1] for entry in unacked)
            except Exception as exc:
                if not isinstance(exc, OSError):
                    self._fail_run(live, exc)  # say, a compaction subscriber:
                    continue                   # this run alone
                self._durability_failed = exc  # visible before any future fails
                self._fail_run(live, exc)
                while unacked:
                    _, pending, live, *_ = unacked.popleft()
                    pending.join()  # nothing stays in flight; its own error is moot
                    self._fail_run(live, self._fail_stopped())
                break
            self.metrics.record_commit()
            self._acknowledge(live, results, items, store_calls, mutation=True)
        self._writing.clear()

    def _read_store(self) -> DynamicGraphStore:
        """The store a read run executes against.

        With replicas, reads round-robin across the followers at the
        configured freshness (the dispatcher thread drives the pump/barrier,
        so replica state only ever advances between runs -- never while one
        executes); without, the primary serves its own reads.
        """
        if self._replication is None or not self._replication.replicas:
            # No read replicas (an analytics-only group still lands here):
            # the primary serves its own reads.
            return self.store
        follower, index = self._replication.next_follower()
        lag = self._replication.refresh(follower, self.freshness)
        self.metrics.record_replica_read(index, lag)
        return follower.store

    def _fail_run(self, run: List[Request], exc: Exception) -> None:
        """Route one failure to every caller in the run."""
        now = CLOCK()
        for request in run:
            request.future.set_exception(exc)
        self.metrics.record_failed_many([now - r.enqueued_at for r in run])

    def _dispatch_run(self, kind: str, run: List[Request]) -> None:
        """Execute one run with batch store calls; resolve its futures."""
        live = [r for r in run if r.future.set_running_or_notify_cancel()]
        if len(live) < len(run):
            self.metrics.record_cancelled(len(run) - len(live))
        if not live:
            return
        if kind == "analytics":
            self._dispatch_analytics(live)
            return
        # A run is one list request or several single requests of one kind
        # (see split_runs); either way its items reach the store as a batch.
        single = live[0].single
        items = [r.payload for r in live] if single else live[0].payload
        mutation = kind in ("insert", "delete")
        pending = None
        if mutation and self.durability == "batch":
            if self._durability_failed is not None:
                # Fail-stop covers what was already queued: no store call.
                self._fail_run(live, self._fail_stopped())
                return
            # Group commit: the store call returns with the run logged,
            # applied and its fsyncs in flight; _reap() acknowledges it.
            pending = PendingCommit(self._queue.wake)
        elif self._unacked:
            # A read observes every write submitted before it: acknowledge,
            # waiting if need be, the commits that wrote one of its sources
            # (applied on the primary, shipped to the replica by then).  The
            # others stay in flight: nothing this read returns depends on them.
            writing = self._writing
            sources = items if kind == "successors" else [u for u, _ in items]
            self._reap(max((writing[u] for u in sources if u in writing), default=0))
        try:
            results, store_calls = self._execute_run(kind, items, single, pending)
        except Exception as exc:
            if pending is not None:
                # A refused apply was rolled back and fails its run alone,
                # after the commits before it (failures keep commit order
                # too); an OSError here is the log write itself: fail-stop.
                self._reap(self._commit_seq)
                if isinstance(exc, OSError) and self._durability_failed is None:
                    self._durability_failed = exc
            self._fail_run(live, exc)
            return
        if pending is None:
            self._acknowledge(live, results, len(items), store_calls, mutation)
            return
        self._commit_seq = seq = self._commit_seq + 1
        self._unacked.append((seq, pending, live, results, len(items), store_calls))
        writing = self._writing
        for u, _ in items:
            writing[u] = seq

    def _acknowledge(self, live: List[Request], results: list, items: int,
                     store_calls: int, mutation: bool) -> None:
        """Resolve an executed (and, under group commit, durable) run."""
        if self._replication is not None and mutation:
            # Keep the replicas' queues draining at traffic pace: ship what
            # this run committed (only flushed records travel) and let every
            # follower apply it, so a write-heavy stretch never accumulates
            # the whole history in the in-process channels.
            self._replication.advance()
        self.metrics.record_batch(items, store_calls=store_calls)
        now = CLOCK()
        for request, value in zip(live, results):
            request.future.set_result(value)
        self.metrics.record_resolved_many(
            [now - r.enqueued_at for r in live], items)

    def _dispatch_analytics(self, live: List[Request]) -> None:
        """Analytics jobs execute one by one against one consistent store."""
        self._reap(self._commit_seq)  # a job may read any source
        incremental = self.analytics_mode == "incremental"
        try:
            target = (self._refresh_incremental() if incremental
                      else self._read_store())
        except Exception as exc:
            self._fail_run(live, exc)
            return
        # Counted only once the run is actually going to hit a store,
        # matching the _execute_run paths.
        self.metrics.record_batch(len(live), store_calls=len(live))
        serve = (self._run_analytics_incremental if incremental
                 else self._run_analytics)
        for request in live:
            serve(request, target)

    def _execute_run(self, kind: str, items: list, single: bool,
                     pending: Optional[PendingCommit] = None):
        """One run's items -> batch store calls -> one result per request.

        ``single`` says the run holds one request per item (each resolves
        to a bare value); otherwise it is one list request, whose result is
        the store's own return value.  Returns ``(results, store_calls)``.
        Read runs go through :meth:`_read_store` (a replica when the
        service is replicated); mutation runs always hit the primary.
        """
        if kind == "has":
            answers = self._read_store().has_edges(items)
            return (answers if single else [answers]), 1
        if kind == "successors":
            fanned = self._read_store().successors_many(items)
            if not single:
                return [fanned], 1
            # Copy: two requests for the same node must not share one list.
            return [list(fanned[u]) for u in items], 1
        mutate = (self.store.insert_edges if kind == "insert"
                  else self.store.delete_edges)
        if pending is not None:
            mutate = partial(mutate, _pending=pending)
        if not single:
            return [mutate(items)], 1
        if len(items) == 1:
            # One caller: the store's own count is the answer, no pre-probe.
            return [bool(mutate(items))], 1
        # Several single mutations: per-request results come from a batched
        # pre-probe plus in-window bookkeeping (an edge's first insert in
        # the run wins, as does its first delete).
        present = self.store.has_edges(items)
        mutate(items)
        wanted = kind == "delete"
        done: set = set()
        results = []
        for edge, was_present in zip(items, present):
            results.append(bool(was_present) == wanted and edge not in done)
            done.add(edge)
        return results, 2

    def _refresh_incremental(self):
        """Barrier the analytics follower, fold the delta into its kernels.

        Runs once per analytics run (the dispatcher thread owns the pump,
        so no ops arrive while the run's jobs execute).  Records the
        ISSUE's "analytics" metrics: the dirty-source count the change feed
        had accumulated, the incremental-vs-recompute decision taken, and
        the cache's cumulative hit-rate counters.
        """
        follower = self._replication.analytics_follower
        self._replication.refresh(follower, self.freshness)
        dirty = follower.cache.dirty_count
        decision = follower.refresh_analytics()
        self.metrics.record_analytics_run(decision, dirty, follower.cache.stats())
        return follower

    def _run_analytics_incremental(self, request: Request, follower) -> None:
        """Serve one analytics job from the delta-maintained replica.

        ``pagerank`` (at the follower's configured sweep count / damping),
        ``wcc`` and ``top_degree_nodes`` come straight from the maintained
        kernels -- O(answer), no store calls.  Everything else (and
        ``pagerank`` with non-default parameters) recomputes through a
        fresh cache-backed engine, so the store's materialization phase is
        served from the adjacency cache.
        """
        task, args, kwargs = request.payload
        try:
            result = self._serve_incremental(task, args, kwargs, follower)
        except Exception as exc:
            self._fail_run([request], exc)
            return
        request.future.set_result(result)
        self.metrics.record_resolved_many([CLOCK() - request.enqueued_at], 1)

    def _serve_incremental(self, task: str, args, kwargs, follower):
        if task == "pagerank":
            iterations = args[0] if len(args) > 0 else kwargs.get(
                "iterations", follower.iterations)
            damping = args[1] if len(args) > 1 else kwargs.get(
                "damping", follower.damping)
            if (iterations, damping) == (follower.iterations, follower.damping):
                return follower.pagerank()
            return canonical_pagerank(
                follower.store, iterations, damping,
                engine=CachedTraversalEngine(follower.store, follower.cache),
            )
        if task == "wcc":
            return follower.components()
        if task == "top_degree_nodes":
            count = args[0] if args else kwargs["count"]
            return follower.top_degree_nodes(count)
        handler = ANALYTICS_HANDLERS[task]
        engine = CachedTraversalEngine(follower.store, follower.cache)
        return handler(follower.store, *args, engine=engine, **kwargs)

    def _run_analytics(self, request: Request,
                       store: DynamicGraphStore) -> None:
        """Analytics jobs execute one by one; exceptions stay per-request.

        ``store`` is the (possibly replica) store the run was routed to;
        the whole job runs against that one consistent state.
        """
        task, args, kwargs = request.payload
        handler = ANALYTICS_HANDLERS[task]
        try:
            engine = TraversalEngine(store)
            result = handler(store, *args, engine=engine, **kwargs)
        except Exception as exc:
            self._fail_run([request], exc)
            return
        request.future.set_result(result)
        self.metrics.record_resolved_many([CLOCK() - request.enqueued_at], 1)
