"""Automatic failover: heartbeats, a lease, an election, a promotion.

The mechanism was finished two PRs ago -- ``Follower.promote()`` already
turns a caught-up replica into a standalone writable store whose first
checkpoint is stamped one generation past everything the old primary ever
wrote, so the deposed leader's segments are provably stale (the fence).
What was missing is the *policy*: deciding that the primary is dead and
picking who promotes.  :class:`FailoverManager` is that policy, and it is
deliberately simple:

* **Heartbeats.**  Each registered member is probed on ``heartbeat()`` --
  a :class:`~repro.replicate.net.RemoteFollower` round-trips a ping over
  its own replication socket (the health check travels the same wire the
  data does), an in-process follower checks its attachment.  Every success
  refreshes the lease.
* **Lease.**  The primary is presumed alive for ``lease_s`` seconds after
  the last successful probe *by any member*.  Only when no member has
  reached it for a full lease does the manager declare it dead -- one slow
  heartbeat does not trigger an election, one reachable member vetoes it.
* **Election.**  The lowest-id live member wins.  No quorum, no terms:
  the manager is a single decision point (run it where the clients are),
  and the generation fence -- not the election -- is what makes a deposed
  primary harmless.  Determinism is the virtue: every test and every
  operator can predict the winner.
* **Promotion + rewire.**  The winner drains what already arrived,
  records its exact :class:`~repro.persist.wal.WalPosition` (the
  byte-identity witness: ``recover(old_dir, upto=position)`` must equal
  the promoted store), promotes, and optionally becomes a new
  :class:`Primary` -- serving over TCP again when ``listen`` is given.
  Losing members close and re-attach fresh through their ``respawn``
  callable: loss is handled by re-attaching, never by repair.

The manager manages followers co-located in its process (they may be
*remote* followers -- their stores are local, their primary is not).  A
deposed primary that comes back simply finds its followers gone and its
segments fenced; the chaos tests exercise exactly that.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Optional, Tuple, Union

from ..core.errors import ReplicationError
from ..persist import PersistentStore, WalPosition
from .follower import Follower
from .net import ReplicationServer
from .primary import Primary

#: Default lease: how long the primary stays presumed-alive after the last
#: successful probe by any member (seconds).
DEFAULT_LEASE_S = 1.0


@dataclass
class _Member:
    follower: Follower
    probe: Callable[[], None]
    respawn: Optional[Callable[[Primary, Optional[ReplicationServer]],
                               Follower]]
    last_contact: float = 0.0


@dataclass
class Failover:
    """What an election produced.

    ``position`` is the winner's exact per-segment cut at promotion time:
    ``recover(copy_of_old_primary_dir, upto=position)`` rebuilds byte-for-
    byte the state the new primary started from.
    """

    node_id: int
    store: PersistentStore
    position: WalPosition
    primary: Optional[Primary] = None
    server: Optional[ReplicationServer] = None
    followers: Dict[int, Follower] = field(default_factory=dict)


class FailoverManager:
    """Heartbeat-driven, lease-based election over registered followers.

    Args:
        lease_s: Seconds of total unreachability before an election fires.
        clock: Monotonic time source; injectable so tests expire the lease
            without sleeping through it.
    """

    def __init__(self, lease_s: float = DEFAULT_LEASE_S,
                 clock: Callable[[], float] = time.monotonic):
        if lease_s <= 0:
            raise ValueError(f"lease_s must be > 0, got {lease_s}")
        self._lease_s = lease_s
        self._clock = clock
        self._members: Dict[int, _Member] = {}
        self._last_contact = clock()
        self._lock = threading.RLock()
        #: Elections performed.
        self.failovers = 0

    # ------------------------------------------------------------------ #
    # Membership
    # ------------------------------------------------------------------ #

    def register(
        self,
        node_id: int,
        follower: Follower,
        probe: Optional[Callable[[], None]] = None,
        respawn: Optional[Callable[[Primary, Optional[ReplicationServer]],
                                   Follower]] = None,
    ) -> None:
        """Add ``follower`` to the pool under ``node_id``.

        ``probe`` raises when the primary is unreachable through this
        member; the default pings remote followers and checks attachment
        on in-process ones.  ``respawn(primary, server)`` builds this
        member's fresh replacement follower after a failover rewire (a
        member without one is closed and dropped instead).
        """
        with self._lock:
            if node_id in self._members:
                raise ReplicationError(
                    f"node id {node_id} is already registered")
            self._members[node_id] = _Member(
                follower=follower,
                probe=probe or self._default_probe(follower),
                respawn=respawn,
                last_contact=self._clock(),
            )

    def _default_probe(self, follower: Follower) -> Callable[[], None]:
        timeout = max(0.1, min(1.0, self._lease_s / 2))

        def probe() -> None:
            ping = getattr(follower, "ping", None)
            if callable(ping):
                ping(timeout=timeout)  # raises when the primary is gone
                return
            if not follower.attached:
                raise ReplicationError("follower is detached")
            primary = follower._primary
            if primary is None or primary.closed:
                raise ReplicationError("primary is closed")

        return probe

    @property
    def members(self) -> Tuple[int, ...]:
        with self._lock:
            return tuple(sorted(self._members))

    @property
    def lease_s(self) -> float:
        return self._lease_s

    # ------------------------------------------------------------------ #
    # Health
    # ------------------------------------------------------------------ #

    def heartbeat(self) -> Dict[int, bool]:
        """Probe every member; refresh the lease on any success."""
        results: Dict[int, bool] = {}
        with self._lock:
            members = list(self._members.items())
        now = self._clock()
        for node_id, member in members:
            if member.follower.closed:
                results[node_id] = False
                continue
            try:
                member.probe()
            except Exception:
                results[node_id] = False
            else:
                results[node_id] = True
                member.last_contact = now
                with self._lock:
                    if now > self._last_contact:
                        self._last_contact = now
        return results

    @property
    def lease_expired(self) -> bool:
        """No member has reached the primary for a full lease."""
        return self._clock() - self._last_contact > self._lease_s

    # ------------------------------------------------------------------ #
    # Election
    # ------------------------------------------------------------------ #

    def maybe_failover(self, **kwargs) -> Optional[Failover]:
        """One tick: heartbeat, then elect iff the lease expired."""
        self.heartbeat()
        if not self.lease_expired:
            return None
        return self.failover(**kwargs)

    def failover(
        self,
        path: Optional[Union[str, Path]] = None,
        *,
        rewire: bool = True,
        listen: Optional[Tuple[str, int]] = None,
        sync_on_commit: bool = True,
    ) -> Failover:
        """Elect the lowest-id live member and promote it.

        The winner drains its queue (everything that arrived before the
        primary died is applied -- nothing acknowledged-and-shipped is
        lost), promotes through the generation fence, and becomes the new
        write side.  With ``rewire`` the losing members close and their
        ``respawn`` callables build fresh followers attached to the new
        primary; with ``listen`` the new primary serves over TCP at that
        ``(host, port)``.  The manager's membership and lease reset to the
        new topology.
        """
        with self._lock:
            live = {nid: m for nid, m in self._members.items()
                    if not m.follower.closed}
            if not live:
                raise ReplicationError(
                    "cannot fail over: no live follower to elect")
            winner_id = min(live)
            winner = live[winner_id]
            winner.follower.poll()  # drain: take everything that arrived
            position = winner.follower.position
            store = winner.follower.promote(path,
                                            sync_on_commit=sync_on_commit)
            self.failovers += 1
            result = Failover(node_id=winner_id, store=store,
                              position=position)
            if rewire or listen is not None:
                result.primary = Primary(store)
                if listen is not None:
                    host, port = listen
                    result.server = ReplicationServer(result.primary,
                                                      host, port)
            survivors: Dict[int, _Member] = {}
            for node_id, member in live.items():
                if node_id == winner_id:
                    continue
                member.follower.close()
                if rewire and result.primary is not None \
                        and member.respawn is not None:
                    fresh = member.respawn(result.primary, result.server)
                    result.followers[node_id] = fresh
                    survivors[node_id] = _Member(
                        follower=fresh,
                        probe=self._default_probe(fresh),
                        respawn=member.respawn,
                        last_contact=self._clock(),
                    )
            self._members = survivors
            self._last_contact = self._clock()  # fresh lease, new primary
            return result
