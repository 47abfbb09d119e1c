"""Read replicas: apply the shipped log, expose a commit index, promote.

A :class:`Follower` is the read half of the replication pair: it holds a
store of **any** registered scheme (it never logs -- the primary's WAL is
the single source of truth), applies :class:`RecordShipment` messages in
ship order, and exposes

* ``commit_index`` -- monotonic count of group commits applied, directly
  comparable with the primary's;
* ``position`` -- the exact per-segment byte cut
  (:class:`~repro.persist.wal.WalPosition`) its state corresponds to,
  which is precisely what ``recover(path, upto=position)`` replays, so a
  follower's observed state is always point-in-time recoverable from the
  primary's directory;
* ``wait_for(index)`` -- the read-your-writes barrier: apply queued
  shipments until the given commit index is reached (clients that saw a
  mutation acknowledged at index ``i`` read a follower only after
  ``wait_for(i)``);
* ``promote()`` -- failover: wrap the follower's store in a fresh,
  standalone writable :class:`~repro.persist.PersistentStore` whose first
  checkpoint is stamped **one generation past** everything the follower
  ever saw, so WAL segments from the deposed primary's era are provably
  stale and recovery rejects them instead of double-applying history.

Followers are deliberately pull-based (``poll``/``wait_for`` drain the
channel on the caller's thread): replication lag is then a real, observable
quantity -- the service layer measures it per read -- rather than an
artifact of a background thread's scheduling.
"""

from __future__ import annotations

import threading
import time
from itertools import groupby
from operator import itemgetter
from pathlib import Path
from typing import Callable, List, Optional, Union

from ..core.errors import ReplicationError
from ..interfaces import DynamicGraphStore
from ..persist import INSERT, INSERT_WEIGHTED, WAL_HEADER_SIZE, WalPosition
from ..persist.store import (
    PersistentStore,
    _resolve_factory,
    apply_op,
)
from .transport import GenerationBump, RecordShipment, ReplicationChannel

#: How long ``wait_for`` waits for the primary by default (seconds).
DEFAULT_BARRIER_TIMEOUT_S = 30.0

#: Default poll slice for barriers over channels without send-side
#: notification (seconds).  Constructor-overridable so tight convergence
#: loops (the incremental-analytics fuzz lane) do not burn wall-clock.
DEFAULT_POLL_SLICE_S = 0.05


def apply_shipped_ops(store: DynamicGraphStore, ops) -> None:
    """Apply one shipment's decoded operations to a follower store.

    Each maximal run of plain inserts (or deletes) goes to the store as one
    ``insert_edges`` / ``delete_edges`` call -- the primary applied them as
    a batch, and so does the replica (a store that acts per call, such as a
    tiered one, then sees the same calls on both).  Weighted inserts carry
    a delta each and stay per-op, as does a run of one, where a batch
    call's fixed cost buys nothing.

    Raises :class:`ReplicationError` (instead of a bare ``AttributeError``
    deep in a store) when a weighted record meets an unweighted store --
    the same scheme-mismatch refusal recovery makes, surfaced per shipment.
    """
    for tag, run in groupby(ops, key=itemgetter(0)):
        run = list(run)
        if tag == INSERT_WEIGHTED and not store.weighted:
            raise ReplicationError(
                f"stream holds weighted records but the follower store "
                f"({store.name!r}) is not weighted"
            )
        if tag == INSERT_WEIGHTED or len(run) == 1:
            for op in run:
                apply_op(store, op)
        elif tag == INSERT:
            store.insert_edges([(u, v) for _, u, v in run])
        else:
            store.delete_edges([(u, v) for _, u, v in run])


class Follower:
    """One read replica: a store kept converged by applying the shipped log.

    Args:
        store: The structure shipped records are applied into.  When
            omitted, ``scheme`` (a registered persistence scheme name or a
            factory) builds it.
        scheme: Scheme used when ``store`` is not given.
        own_store: Close the store when the follower closes.  Defaults to
            owning exactly the store this constructor built.  A promoted
            follower never closes the store -- ownership moved to the
            returned :class:`PersistentStore`.
        poll_slice_s: Longest single sleep :meth:`wait_for` takes against a
            channel *without* send-side notification (a custom transport
            that never calls its listener).  Notifying transports ignore
            it.  Defaults to :data:`DEFAULT_POLL_SLICE_S`.
    """

    def __init__(
        self,
        store: Optional[DynamicGraphStore] = None,
        scheme: Union[str, Callable[[], DynamicGraphStore]] = "sharded",
        *,
        own_store: Optional[bool] = None,
        poll_slice_s: float = DEFAULT_POLL_SLICE_S,
    ):
        if poll_slice_s <= 0:
            raise ValueError(f"poll_slice_s must be > 0, got {poll_slice_s}")
        if store is None:
            self._store = _resolve_factory(scheme)()
            self._scheme_name = scheme if isinstance(scheme, str) else None
        else:
            self._store = store
            self._scheme_name = None
        self._own_store = (store is None) if own_store is None else own_store
        self._poll_slice_s = poll_slice_s
        self._channel: Optional[ReplicationChannel] = None
        self._primary = None
        self._generation = 0
        self._offsets: List[int] = []
        self._closed = False
        self._promoted = False
        # Arrival signalling for wait_for: the channel's send-side listener
        # sets _arrived and notifies, so the barrier sleeps instead of
        # spinning (see wait_for).
        self._arrival = threading.Condition()
        self._arrived = False
        #: Group commits applied; comparable with the primary's commit_index.
        self.commit_index = 0

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def store(self) -> DynamicGraphStore:
        """The replica store (read it directly; never write to it)."""
        return self._store

    @property
    def attached(self) -> bool:
        return self._channel is not None and not self._channel.closed

    @property
    def generation(self) -> int:
        """Primary checkpoint generation the replica has observed."""
        return self._generation

    @property
    def position(self) -> WalPosition:
        """Exact per-segment cut this replica's state corresponds to.

        Feed it to ``recover(primary_dir, upto=position)`` to rebuild this
        very state from the primary's directory (copy the directory first:
        the rewind is destructive).
        """
        return WalPosition(generation=self._generation,
                           offsets=tuple(self._offsets))

    @property
    def promoted(self) -> bool:
        return self._promoted

    @property
    def closed(self) -> bool:
        return self._closed

    def lag(self) -> int:
        """Commits the attached primary has *logged* that this replica has
        not applied yet (0 when detached).

        Staleness is measured against ``Primary.logged_commit_index`` --
        committed group commits, shipped or still buffered -- not the
        shipped-only ``commit_index``: a primary that committed without
        pumping has a replica that really is behind, and ``lag()`` must say
        so (``ServiceMetrics`` already counts replica staleness this way;
        the two used to disagree exactly on the buffered-unshipped window).
        """
        if self._primary is None:
            return 0
        return max(0, self._primary.logged_commit_index - self.commit_index)

    # ------------------------------------------------------------------ #
    # Stream intake (called by Primary.attach / the read path)
    # ------------------------------------------------------------------ #

    def _connect(self, primary, channel: ReplicationChannel, *,
                 commit_index: int, generation: int, offsets) -> None:
        self._ensure_live()
        self._primary = primary
        self._channel = channel
        channel.set_listener(self._on_arrival)
        self.commit_index = commit_index
        self._generation = generation
        self._offsets = list(offsets)

    def _on_arrival(self) -> None:
        """Channel send-side hook: wake a barrier blocked in wait_for."""
        with self._arrival:
            self._arrived = True
            self._arrival.notify_all()

    def _disconnect(self) -> None:
        if self._channel is not None:
            self._channel.close()
            self._channel = None
        self._primary = None
        # A barrier blocked in wait_for must notice the detach, not sleep
        # out its whole timeout against a channel that no longer exists.
        with self._arrival:
            self._arrival.notify_all()

    def _ensure_live(self) -> None:
        if self._closed:
            raise ReplicationError("follower is closed")
        if self._promoted:
            raise ReplicationError(
                "follower was promoted; drive the returned PersistentStore"
            )

    def _apply(self, message) -> None:
        if isinstance(message, GenerationBump):
            # Everything the checkpoint folded was shipped first (the
            # primary's pre-truncation hook), so the store state is already
            # converged; only the position bookkeeping resets.
            self._generation = message.generation
            self._offsets = [WAL_HEADER_SIZE] * len(self._offsets)
            return
        if isinstance(message, RecordShipment):
            self._apply_ops(message.ops)
            self.commit_index = message.commit_index
            self._offsets[message.segment] = message.end_offset
            # Notify on apply: a wait_for blocked in another thread re-checks
            # its target index as soon as the commit index advances.
            with self._arrival:
                self._arrival.notify_all()
            return
        raise ReplicationError(f"unknown replication message {message!r}")

    def _apply_ops(self, ops) -> None:
        """Apply one shipment's decoded ops to the replica store.

        The seam subclasses hook to observe the change feed: an analytics
        follower (:class:`repro.analytics.incremental.AnalyticsFollower`)
        overrides this to also mark the touched source nodes dirty in its
        materialization cache.  Note that ``Primary.attach``'s backfill
        writes to the store *directly* (it replays the directory, not the
        channel), so subclasses must also treat :meth:`_connect` as a full
        invalidation point.
        """
        apply_shipped_ops(self._store, ops)

    def poll(self, max_records: Optional[int] = None) -> int:
        """Apply queued shipments without blocking; return how many.

        ``max_records`` caps the records applied (generation bumps are
        free), which is what lets tests stop a replica at an exact commit
        index mid-stream.
        """
        self._ensure_live()
        if self._channel is None:
            return 0
        applied = 0
        while max_records is None or applied < max_records:
            message = self._channel.receive()
            if message is None:
                return applied
            self._apply(message)
            if isinstance(message, RecordShipment):
                applied += 1
        return applied

    def wait_for(self, index: int,
                 timeout: float = DEFAULT_BARRIER_TIMEOUT_S) -> int:
        """Read-your-writes barrier: block until ``commit_index >= index``.

        Drains and applies queued shipments, then -- when the index is still
        short -- sleeps on a condition variable that the channel's send hook
        and every apply notify, instead of burning the wait polling the
        channel.  Returns the commit index reached.  Raises
        :class:`ReplicationError` if the primary does not deliver ``index``
        within ``timeout`` seconds (the replica is lagging or the primary
        stopped pumping), or if the follower is detached before reaching it.

        A channel without send-side notification (a custom transport that
        never calls its listener) degrades to short poll slices rather than
        sleeping out the whole timeout against a silent pipe.
        """
        self._ensure_live()
        deadline = time.monotonic() + timeout
        while True:
            # Drain whatever already arrived first: even when the index is
            # already met, a queued generation bump must not linger
            # unapplied.  Applying happens on this thread (followers stay
            # pull-based); the condition variable only schedules the wait.
            self.poll()
            if self.commit_index >= index:
                return self.commit_index
            # Re-checked after *every* wake, channel-closed included: a
            # transport dropping underneath the barrier (socket reset,
            # server shutdown) closes the channel without going through
            # _disconnect, and close() notifies -- the barrier must raise
            # promptly instead of sleeping out its whole timeout.
            if self._channel is None or self._channel.closed:
                raise ReplicationError(
                    f"follower is detached at commit {self.commit_index}; "
                    f"cannot reach {index}"
                )
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise ReplicationError(
                    f"read-your-writes barrier timed out at commit "
                    f"{self.commit_index}, waiting for {index}"
                )
            if not self._channel.notifies_on_send:
                remaining = min(remaining, self._poll_slice_s)
            with self._arrival:
                # A message that landed between the poll above and this
                # acquire already set _arrived; skip the wait and re-drain
                # instead of sleeping through the missed wakeup.
                if not self._arrived:
                    self._arrival.wait(remaining)
                self._arrived = False

    # ------------------------------------------------------------------ #
    # Promotion and lifecycle
    # ------------------------------------------------------------------ #

    def promote(
        self,
        path: Optional[Union[str, Path]] = None,
        *,
        sync_on_commit: bool = True,
        compact_wal_bytes: Optional[int] = 1 << 20,
    ) -> PersistentStore:
        """Turn this caught-up replica into a standalone writable store.

        Detaches from the primary, wraps the replica store in a fresh
        :class:`PersistentStore` rooted at ``path`` (ephemeral when
        ``None``) and immediately checkpoints it.  The checkpoint stamps
        snapshot *and* segments with ``generation + 1`` -- one past every
        generation the old primary ever wrote -- which is the fencing
        token: a stale segment from the deposed primary dropped into the
        new directory carries an older generation, so recovery provably
        skips (and truncates) it instead of replaying a dead leader's
        writes over the new timeline.

        Call :meth:`wait_for` first if the replica must include specific
        commits; promotion takes the replica as it stands after draining
        what has already arrived.
        """
        self._ensure_live()
        # Drain the channel before reading self._generation: a queued
        # GenerationBump left unapplied would make the promoted checkpoint
        # reuse the deposed primary's *current* generation instead of
        # exceeding it, and its stale segments would pass the fence.
        self.poll()
        if self._primary is not None:
            self._primary.detach(self)
        store = PersistentStore(
            path,
            store=self._store,
            own_store=True,
            sync_on_commit=sync_on_commit,
            compact_wal_bytes=compact_wal_bytes,
            _scheme_name=self._scheme_name,
            _generation=self._generation,
        )
        store.checkpoint()  # commit point: snapshot + segments at generation+1
        self._promoted = True
        self._own_store = False  # ownership moved to the promoted wrapper
        return store

    def close(self) -> None:
        """Detach and (when owned) close the replica store.  Idempotent."""
        if self._closed:
            return
        self._closed = True
        if self._primary is not None:
            self._primary.detach(self)
        else:
            self._disconnect()
        if self._own_store:
            self._store.close()

    def __enter__(self) -> "Follower":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
