"""The wire between a replication primary and its followers.

Log shipping needs surprisingly little from its transport: the primary
fans each message out to every attached follower, a follower consumes its
own totally ordered stream, and loss is handled by re-attaching (the
primary backfills from disk -- the one time it reads the log back; what it
ships afterwards comes from memory, off the store's commit feed).
:class:`ReplicationTransport` is that seam: ``connect()`` yields a
:class:`ReplicationChannel` -- ``send`` on the primary side, ``receive``
on the follower side -- and the in-process implementation backs each
channel with a ``deque``.  A channel a follower receives on calls its
registered listener after every message it delivers, so a read-your-writes
barrier sleeps until the record arrives instead of polling.  The socket
transport (:mod:`repro.replicate.net`) plugs in here: the messages are
flat, ``struct``-packable dataclasses (operation tuples, integers, no
object graphs), so serialising them is the WAL encoder's job all over
again.

Message vocabulary:

* :class:`RecordShipment` -- one WAL group-commit record: its global
  ``commit_index`` in the primary's ship order, the segment it went to,
  the segment's generation, the operations it holds, and the absolute byte
  offset just past the record (what lets a follower report an exact
  :class:`~repro.persist.wal.WalPosition` for point-in-time recovery).
* :class:`GenerationBump` -- the primary checkpointed: segments were folded
  into a snapshot and truncated.  Everything the snapshot folded was
  shipped *before* this message (the compaction hook guarantees it), so a
  follower's store state is untouched; only its position bookkeeping
  resets to the new generation's empty segments.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Tuple

from ..core.errors import ReplicationError


@dataclass(frozen=True)
class RecordShipment:
    """One shipped WAL record (one group commit on the primary)."""

    commit_index: int
    segment: int
    generation: int
    ops: Tuple[tuple, ...]
    end_offset: int


@dataclass(frozen=True)
class GenerationBump:
    """The primary compacted: cursors reset to ``generation``'s fresh segments."""

    commit_index: int
    generation: int


class ReplicationChannel:
    """One primary-to-follower pipe (single producer, single consumer).

    An implementation a follower receives on calls :meth:`_notify_listener`
    after each enqueued message, so a blocked consumer
    (``Follower.wait_for``) sleeps on a condition variable until the message
    it waits for arrives.
    """

    def set_listener(self, callback) -> None:
        """Register a callable invoked (on the sender's thread) per send."""
        self._listener = callback

    def _notify_listener(self) -> None:
        listener = getattr(self, "_listener", None)
        if listener is not None:
            listener()

    def send(self, message) -> None:
        raise NotImplementedError

    def receive(self):
        """Next message without blocking; ``None`` when dry."""
        raise NotImplementedError

    def close(self) -> None:
        """Close the channel, then wake the registered listener.

        The notification is load-bearing: a consumer blocked in
        ``Follower.wait_for`` sleeps on the arrival condition this listener
        feeds, and a transport dying underneath it (a socket reset, a
        server shutdown) does not go through ``Follower._disconnect`` -- so
        without this wake-up the barrier would sleep out its entire timeout
        against a channel that can never deliver.  Subclasses implement
        :meth:`_close` (idempotent) and inherit the notification.
        """
        self._close()
        self._notify_listener()

    def _close(self) -> None:
        """Release the transport resources (idempotent); see :meth:`close`."""
        raise NotImplementedError

    @property
    def closed(self) -> bool:
        raise NotImplementedError


class ReplicationTransport:
    """Factory for channels; one per attached follower."""

    def connect(self) -> ReplicationChannel:
        raise NotImplementedError


class InProcessChannel(ReplicationChannel):
    """Deque-backed channel for followers living in the primary's process.

    Unbounded: the primary also fills it synchronously during compaction,
    where a full pipe could only deadlock.  ``append`` and ``popleft`` are
    atomic, so polling an empty channel costs one failed truth test.
    """

    def __init__(self):
        self._messages: deque = deque()
        self._closed = False

    def send(self, message) -> None:
        if self._closed:
            raise ReplicationError("cannot ship on a closed replication channel")
        self._messages.append(message)
        self._notify_listener()

    def receive(self):
        messages = self._messages
        return messages.popleft() if messages else None  # the one consumer pops

    def _close(self) -> None:
        self._closed = True

    @property
    def closed(self) -> bool:
        return self._closed


class InProcessTransport(ReplicationTransport):
    """In-process deque transport (the default; the socket transport's stand-in)."""

    def connect(self) -> InProcessChannel:
        return InProcessChannel()
