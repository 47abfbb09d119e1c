"""Replication subsystem: WAL shipping, read replicas, PITR, failover.

PR 4's durability subsystem made every store restartable from one ordered
update log; this package makes that log the *replication stream*.  A
:class:`Primary` ships the committed WAL records of a live
:class:`~repro.persist.PersistentStore` (per-shard segments included) from
the store's in-memory commit feed, once their fsync has returned, over a
pluggable transport (in-process deques, or TCP via
:class:`ReplicationServer`/:class:`RemoteFollower`); :class:`Follower`
replicas apply the stream into a store of any registered scheme, expose a
monotonic ``commit_index`` plus a read-your-writes barrier (``wait_for``),
and can be promoted into a standalone writable store whose bumped
generation fences out the deposed primary's stale segments.
:class:`FailoverManager` layers heartbeats and a lease-based election on
top of that promotion primitive, and point-in-time recovery rides the
same machinery: ``recover(path, upto=...)`` rewinds a directory to an
exact group-commit index or :class:`~repro.persist.WalPosition`.

Quickstart::

    from repro.persist import PersistentStore
    from repro.replicate import Primary, Follower

    primary_store = PersistentStore("/tmp/graph", scheme="sharded")
    primary = Primary(primary_store)
    replica = Follower(scheme="sharded")
    primary.attach(replica)

    primary_store.insert_edges([(1, 2), (1, 3)])
    primary.sync_and_pump()
    replica.wait_for(primary.commit_index)   # read-your-writes barrier
    assert replica.store.has_edge(1, 2)

Networked (each side may live in its own process)::

    from repro.replicate import ReplicationServer, RemoteFollower

    server = ReplicationServer(primary)          # primary's process
    replica = RemoteFollower(server.address)     # anywhere else
"""

from .failover import DEFAULT_LEASE_S, Failover, FailoverManager
from .follower import DEFAULT_BARRIER_TIMEOUT_S, Follower
from .group import ReplicationGroup
from .net import (
    DEFAULT_CONNECT_TIMEOUT_S,
    RemoteFollower,
    RemotePrimaryHandle,
    ReplicationServer,
    SocketChannel,
    decode_message,
    encode_message,
)
from .primary import ChannelSubscriber, Primary
from .transport import (
    GenerationBump,
    InProcessChannel,
    InProcessTransport,
    RecordShipment,
    ReplicationChannel,
    ReplicationTransport,
)

__all__ = [
    "ChannelSubscriber",
    "DEFAULT_BARRIER_TIMEOUT_S",
    "DEFAULT_CONNECT_TIMEOUT_S",
    "DEFAULT_LEASE_S",
    "Failover",
    "FailoverManager",
    "Follower",
    "GenerationBump",
    "InProcessChannel",
    "InProcessTransport",
    "Primary",
    "RecordShipment",
    "RemoteFollower",
    "RemotePrimaryHandle",
    "ReplicationChannel",
    "ReplicationGroup",
    "ReplicationServer",
    "ReplicationTransport",
    "SocketChannel",
    "decode_message",
    "encode_message",
]
