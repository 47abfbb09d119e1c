"""The replication primary: ships the store's commits from memory.

The single-writer story stays exactly what PR 4 made it: one
:class:`~repro.persist.PersistentStore` owns the directory, appends every
group commit to the log, and holds the advisory lock.  :class:`Primary`
adds no second writer and, in steady state, no reader either: it consumes
the store's **commit feed** (:meth:`PersistentStore.subscribe_feed`) --
per commit whose apply succeeded, the operations and end offset of each
record it appended, released once an fsync covering the record has
returned -- gives each record a global, monotonic **commit index** in ship
order, and fans it out to every attached follower over a pluggable
transport.  Ship order is commit order; a segment's records leave the feed
in append order and operations on a source node always land in that node's
own segment, so any such order is a consistent one.  The segment files are
read only to *backfill*: ``attach``, :meth:`Primary.shipped_records` and the
socket bootstrap built on it.

Three invariants make the stream lossless:

* **Acknowledged, then durable, then shipped.**  Nothing leaves the feed
  before its fsync returned, so a follower is never ahead of the durable log
  and ``recover(copy, upto=follower.position)`` always finds what the
  position names.  A commit whose apply raised (and was rolled back out of
  the log) never enters the feed.
* **Attach is backfill + subscribe.**  ``attach`` first syncs and pumps (the
  cursor then covers all that is durable), replays the directory --
  snapshot plus every record up to the cursor -- straight into the
  follower's store, stamps it with the current commit index and position,
  and only then connects its channel.  A follower that crashed and lost
  its state simply re-attaches with a fresh store.
* **A checkpoint folds nothing unshipped.**  The primary subscribes to the
  store's :class:`~repro.persist.CompactionPolicy`; the pre-truncation
  :class:`~repro.persist.CompactionEvent` makes it sync and ship the whole
  feed *before* the snapshot folds those records and the segments are cut.
  The next pump sees the store's new generation and forwards it as a
  :class:`~repro.replicate.transport.GenerationBump`: a clean cursor reset.

``pump`` is explicit and synchronous (the service layer pumps once per
dispatched mutation run, after its commit) and safe beside a committing
thread: the feed is filled and taken under the store's log lock, and an
entry is queued only after its apply returned.
"""

from __future__ import annotations

import threading
from pathlib import Path
from typing import Iterator, List, Optional, Tuple

from ..core.errors import ReplicationError
from ..persist import WAL_HEADER_SIZE, WalPosition, load_snapshot, read_wal_records
from ..persist.snapshot import CompactionEvent
from ..persist.store import SNAPSHOT_NAME, PersistentStore, apply_record
from .transport import (
    GenerationBump,
    InProcessTransport,
    RecordShipment,
    ReplicationTransport,
)


class Primary:
    """Log shipper over a live :class:`PersistentStore`'s commit feed.

    Args:
        store: The write side.  Must be a :class:`PersistentStore` -- the
            WAL is the replication stream, so only a write-ahead-logged
            store can be a primary -- and one no other live primary is
            subscribed to: the feed has one consumer, a second is refused
            with :class:`ReplicationError` until the first is closed.
        transport: Channel factory; defaults to the in-process queue
            transport.  This is the seam where a socket transport plugs in.
    """

    def __init__(self, store: PersistentStore,
                 transport: Optional[ReplicationTransport] = None):
        if not isinstance(store, PersistentStore):
            raise ReplicationError(
                f"a replication primary needs a PersistentStore (the WAL is "
                f"the replication stream), got {type(store).__name__}"
            )
        self._store = store
        self._transport = transport or InProcessTransport()
        self._segment_paths = store.segment_paths
        # The stream starts at the durable end of the log as it stands: what
        # a reopened directory already holds reaches followers by backfill.
        store.sync()
        self._offsets: List[int] = [max(size, WAL_HEADER_SIZE)
                                    for size in store.wal_segment_sizes()]
        self._generation = store.generation
        self._followers: List[object] = []  # Follower instances, fan-out order
        self._closed = False
        self._lock = threading.RLock()
        #: Group-commit records shipped so far, == the newest commit index.
        self.commit_index = 0
        #: Followers evicted mid-broadcast because their channel died.
        self.evictions = 0
        store.subscribe_feed()
        store.compaction_policy.subscribe(self._before_compaction)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def store(self) -> PersistentStore:
        return self._store

    @property
    def path(self) -> Path:
        return self._store.path

    @property
    def generation(self) -> int:
        """Checkpoint generation the ship cursor is at."""
        return self._generation

    @property
    def position(self) -> WalPosition:
        """Exact per-segment cut of everything shipped so far."""
        return WalPosition(generation=self._generation,
                           offsets=tuple(self._offsets))

    @property
    def logged_commit_index(self) -> int:
        """Commit index the *log* has reached, shipped or not.

        ``commit_index`` counts shipped records; the records of commits
        still in the feed (waiting behind an fsync, or durable and not yet
        pumped) are ahead of the stream.  Both count *records* -- one per
        segment a commit touched -- so the difference is the honest
        replication lag of a replica: records applied on the primary that
        it cannot have yet.
        """
        return self.commit_index + self._store.feed_backlog

    @property
    def followers(self) -> Tuple[object, ...]:
        return tuple(self._followers)

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def lock(self) -> threading.RLock:
        """Re-entrant lock serialising membership and shipping.

        Every public mutator takes it; a network server's accept thread
        takes it across an entire bootstrap (sync + pump + snapshot stream
        + subscribe) so no record can slip between backfill and subscribe.
        """
        return self._lock

    # ------------------------------------------------------------------ #
    # Shipping
    # ------------------------------------------------------------------ #

    def _broadcast(self, message) -> None:
        for follower in list(self._followers):
            channel = follower._channel
            if channel is None or channel.closed:
                # Died without detaching: evict with the *full* detach so
                # the follower also learns it is orphaned (otherwise its
                # lag() keeps measuring against a primary that no longer
                # ships to it, and its close() later detaches a primary
                # that already forgot it).
                self.evictions += 1
                self.detach(follower)
                continue
            try:
                channel.send(message)
            except Exception:
                # One dead replica must not abort fan-out to the rest (nor
                # propagate out of pump() with commit_index already
                # advanced): evict it and keep shipping.
                self.evictions += 1
                self.detach(follower)

    def _bump_generation(self, generation: int) -> None:
        self._generation = generation
        self._offsets = [WAL_HEADER_SIZE] * len(self._offsets)
        self._broadcast(GenerationBump(commit_index=self.commit_index,
                                       generation=generation))

    def pump(self) -> int:
        """Ship every record that became durable since the last pump.

        Returns the number of records shipped.  Only *fsynced* commits
        travel: one the store has appended but not synced yet stays in the
        feed (call the store's ``sync()`` first, or run the service's
        group-commit durability which does).
        """
        with self._lock:
            return self._pump_locked()

    def _pump_locked(self) -> int:
        if self._closed:
            raise ReplicationError("primary is closed")
        entries = self._store.take_feed()
        for segment, generation, ops, end_offset in entries:
            if generation != self._generation:
                # The store checkpointed: everything older was shipped by the
                # pre-truncation hook, so this is a pure cursor reset.
                self._bump_generation(generation)
            self.commit_index += 1
            self._offsets[segment] = end_offset
            self._broadcast(RecordShipment(
                commit_index=self.commit_index,
                segment=segment,
                generation=generation,
                ops=ops,
                end_offset=end_offset,
            ))
        if self._generation != self._store.generation:
            self._bump_generation(self._store.generation)
        return len(entries)

    def sync_and_pump(self) -> int:
        """Fsync the store's buffered commits, then ship them.

        Constant time when the feed is empty: every applied commit has then
        been shipped, hence synced, and there is nothing to do for either.
        """
        with self._lock:
            if self._store.feed_backlog:
                self._store.sync()
            return self._pump_locked()

    def _before_compaction(self, event: CompactionEvent) -> None:
        """Pre-truncation hook: ship the whole feed before the checkpoint folds it.

        The snapshot folds buffered appends too; the sync releases them from
        the feed, and after the pump truncation only removes records every
        follower channel already carries.
        """
        with self._lock:
            if not self._closed:
                self.sync_and_pump()

    # ------------------------------------------------------------------ #
    # Membership
    # ------------------------------------------------------------------ #

    def attach(self, follower) -> None:
        """Backfill ``follower`` to the current commit index and subscribe it.

        The follower's store must be empty: backfill replays the primary
        directory (snapshot + every shipped record) into it, so a restarted
        follower re-attaches with a fresh store and converges.  Records
        committed after this call reach it through its channel.
        """
        with self._lock:
            if self._closed:
                raise ReplicationError("primary is closed")
            if follower in self._followers:
                raise ReplicationError("follower is already attached")
            self._store.sync()
            self._pump_locked()  # the cursor covers all that is durable
            self._backfill(follower.store)
            channel = self._transport.connect()
            follower._connect(self, channel,
                              commit_index=self.commit_index,
                              generation=self._generation,
                              offsets=tuple(self._offsets))
            self._followers.append(follower)

    def subscribe_channel(self, channel) -> "ChannelSubscriber":
        """Subscribe a bare channel to the fan-out (no local backfill).

        The network server uses this after streaming snapshot + backfill
        itself: the remote follower's store lives in another process, so
        membership here is just the channel wrapped in a minimal proxy.
        Call under :attr:`lock` together with the bootstrap so no record
        lands between backfill and subscription.  Returns the proxy to pass
        to :meth:`detach`.
        """
        with self._lock:
            if self._closed:
                raise ReplicationError("primary is closed")
            subscriber = ChannelSubscriber(channel)
            self._followers.append(subscriber)
            return subscriber

    def detach(self, follower) -> None:
        """Stop shipping to ``follower`` (idempotent)."""
        with self._lock:
            if follower in self._followers:
                self._followers.remove(follower)
        follower._disconnect()

    def _backfill(self, store) -> None:
        """Replay snapshot + shipped records into an empty follower store.

        Each record goes through :func:`~repro.persist.apply_record`, as in
        recovery.  The follower may be *any* scheme (its own segmentation is
        irrelevant -- it never logs), so only the logical stream is replayed.
        """
        if store.num_edges != 0:
            raise ReplicationError(
                "a follower must attach with an empty store; backfill "
                "replays the primary's history into it"
            )
        load_snapshot(self.path / SNAPSHOT_NAME, store)
        for ops in self.shipped_records():
            apply_record(store, ops)

    def shipped_records(self) -> Iterator[Tuple[tuple, ...]]:
        """Ops of every already-shipped record, in backfill (segment) order.

        This is the record half of a bootstrap: snapshot first (the file at
        ``path / SNAPSHOT_NAME``), then these, and the result equals the
        shipped stream at the current cursor.  The network server streams
        both over the wire instead of applying them to a local store.
        """
        for index, segment in enumerate(self._segment_paths):
            generation, records, _ = read_wal_records(segment)
            if generation is None or generation < self._generation:
                continue
            limit = self._offsets[index]
            for ops, end_offset in records:
                if end_offset > limit:
                    break  # committed after the cursor; ships via the channel
                yield tuple(ops)

    def close(self) -> None:
        """Detach every follower and give the store's feed back.  Idempotent.

        The wrapped store is left untouched (the primary never owned it);
        followers keep their stores and can still be promoted.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._store.compaction_policy.unsubscribe(self._before_compaction)
            self._store.unsubscribe_feed()
            for follower in list(self._followers):
                self.detach(follower)

    def __enter__(self) -> "Primary":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class ChannelSubscriber:
    """Minimal membership proxy for a bare channel.

    Quacks like a follower as far as :meth:`Primary._broadcast` and
    :meth:`Primary.detach` care: exposes ``_channel`` and closes it on
    ``_disconnect``.  The real follower state lives across the wire.
    """

    def __init__(self, channel):
        self._channel = channel

    def _disconnect(self) -> None:
        channel = self._channel
        if channel is not None and not channel.closed:
            channel.close()
