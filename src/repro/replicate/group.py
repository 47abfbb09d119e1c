"""One primary, N followers: the deployment unit the service layer drives.

:class:`ReplicationGroup` bundles the wiring every replicated deployment
repeats -- build a :class:`~repro.replicate.Primary` over the durable
store, spawn one empty replica store per follower (same scheme as the
primary's wrapped structure, via ``spawn_empty``), attach them all -- and
adds the one read-side policy the service exposes, read-your-writes:
before a read is served, sync + pump the primary and run the follower's
:meth:`~repro.replicate.Follower.wait_for` barrier to the primary's commit
index, so the replica observes every mutation dispatched before the read.
When nothing was committed since the last pump (every read that follows a
read) the primary's commit feed is empty and the whole barrier is a few
attribute reads: no fsync call, no file, no lock but the primary's own.

Every follower is a plain :class:`~repro.replicate.Follower` in the read
rotation, and a group has at least one.  Delta-maintained analytics is not a
group concern: attach an :class:`~repro.analytics.AnalyticsFollower` to
``group.primary`` (or any :class:`~repro.replicate.Primary`) directly.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..core.errors import ReplicationError
from ..persist.store import PersistentStore
from .follower import Follower
from .primary import Primary
from .transport import ReplicationTransport


class ReplicationGroup:
    """A primary and its attached read replicas, with read routing."""

    def __init__(
        self,
        store: PersistentStore,
        replicas: int = 1,
        *,
        transport: Optional[ReplicationTransport] = None,
    ):
        if replicas < 1:
            raise ReplicationError(f"replicas must be >= 1, got {replicas}")
        self._next_replica = 0
        self._closed = False
        self.primary = Primary(store, transport=transport)
        factory = store.store.spawn_empty
        self.followers: List[Follower] = []
        try:
            for _ in range(replicas):
                follower = Follower(store=factory(), own_store=True)
                self.primary.attach(follower)
                self.followers.append(follower)
        except BaseException:
            self.close()
            raise

    @property
    def replicas(self) -> int:
        return len(self.followers)

    @property
    def closed(self) -> bool:
        return self._closed

    def next_follower(self) -> Tuple[Follower, int]:
        """Round-robin pick of the replica that serves the next read."""
        index = self._next_replica
        self._next_replica = (index + 1) % len(self.followers)
        return self.followers[index], index

    def advance(self) -> int:
        """Ship newly committed records and let every replica apply them.

        The write-path counterpart of :meth:`refresh`: the service calls it
        once per dispatched mutation run, so follower queues drain at the
        pace of the traffic instead of accumulating the whole shipped
        history between reads.  Returns the records shipped.
        """
        shipped = self.primary.pump()
        if shipped:
            for follower in self.followers:
                follower.poll()
        return shipped

    def refresh(self, follower: Follower) -> int:
        """Bring ``follower`` up to read-your-writes; return its lag.

        Syncs buffered commits, pumps and runs the barrier to the primary's
        commit index.  The returned lag is the distance *closed* by the
        barrier -- how far the replica was trailing when the read arrived.
        """
        self.primary.sync_and_pump()
        behind = follower.lag()
        follower.wait_for(self.primary.commit_index)
        return behind

    def close(self) -> None:
        """Close followers (and their spawned stores) and the primary.

        The primary's *wrapped store* is left open -- whoever constructed
        it (the service, a test) owns and closes it.  Idempotent.
        """
        if self._closed:
            return
        self._closed = True
        for follower in self.followers:
            follower.close()
        self.primary.close()

    def __enter__(self) -> "ReplicationGroup":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
