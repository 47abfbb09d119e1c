"""Failover policy: heartbeats feed a lease, the lease gates an election.

The promotion *mechanism* (generation fencing) is pinned by the PR 5
byte-level fence tests and the replication fuzz lanes; these tests pin the
*policy* around it: one reachable member vetoes an election, total
unreachability for a full lease triggers one, the lowest live id wins,
losers rewire onto the new primary, and the deposed primary's directory is
still fenced out afterwards.
"""

from __future__ import annotations

import shutil
import time

import pytest

from repro import CuckooGraph, ShardedCuckooGraph
from repro.core.errors import ReplicationError
from repro.persist import PersistentStore, read_wal_records, recover
from repro.replicate import (
    FailoverManager,
    Follower,
    Primary,
    RemoteFollower,
    ReplicationServer,
)


class FakeClock:
    """Injectable monotonic clock: tests expire leases without sleeping."""

    def __init__(self):
        self.now = 1000.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def make_cluster(tmp_path, *, followers=2, clock=None, lease_s=1.0):
    store = PersistentStore(tmp_path / "primary", store=CuckooGraph(),
                            own_store=True, sync_on_commit=True,
                            compact_wal_bytes=None)
    primary = Primary(store)
    manager = FailoverManager(lease_s=lease_s, clock=clock or time.monotonic)
    pool = []
    for node_id in range(1, followers + 1):
        follower = Follower(store=CuckooGraph())
        primary.attach(follower)
        manager.register(node_id, follower)
        pool.append(follower)
    return store, primary, manager, pool


class TestLease:
    def test_healthy_heartbeats_hold_the_lease(self, tmp_path):
        clock = FakeClock()
        store, primary, manager, _ = make_cluster(tmp_path, clock=clock)
        try:
            assert manager.heartbeat() == {1: True, 2: True}
            clock.advance(10.0)  # way past the lease without a heartbeat...
            manager.heartbeat()  # ...but the primary is still reachable
            assert not manager.lease_expired
            assert manager.maybe_failover() is None
            assert manager.failovers == 0
        finally:
            primary.close()
            store.close()

    def test_one_reachable_member_vetoes_the_election(self, tmp_path):
        clock = FakeClock()
        store, primary, manager, pool = make_cluster(tmp_path, clock=clock)
        try:
            primary.detach(pool[0])  # node 1 lost its primary...
            clock.advance(2.0)
            results = manager.heartbeat()
            assert results == {1: False, 2: True}  # ...but node 2 still sees it
            assert not manager.lease_expired
            assert manager.maybe_failover() is None
        finally:
            primary.close()
            store.close()

    def test_total_unreachability_expires_the_lease(self, tmp_path):
        clock = FakeClock()
        store, primary, manager, _ = make_cluster(tmp_path, clock=clock)
        try:
            store.insert_edge(1, 2)
            primary.sync_and_pump()
            primary.close()  # the primary dies; every probe now fails
            clock.advance(1.5)
            assert manager.heartbeat() == {1: False, 2: False}
            assert manager.lease_expired
        finally:
            store.close()


class TestElection:
    def test_lowest_live_id_wins(self, tmp_path):
        clock = FakeClock()
        store, primary, manager, pool = make_cluster(
            tmp_path, followers=3, clock=clock)
        try:
            store.insert_edges([(1, 2), (3, 4)])
            primary.sync_and_pump()
            for follower in pool:
                follower.wait_for(primary.commit_index)
            pool[0].close()  # node 1 is dead: it cannot win
            primary.close()
            clock.advance(2.0)
            result = manager.maybe_failover(path=tmp_path / "promoted",
                                            rewire=False)
            assert result is not None
            assert result.node_id == 2
            assert manager.failovers == 1
            assert sorted(result.store.edges()) == [(1, 2), (3, 4)]
            # The loser (node 3) was closed out of the old topology.
            assert pool[2].closed
            result.store.close()
        finally:
            store.close()

    def test_no_live_follower_refuses(self, tmp_path):
        clock = FakeClock()
        store, primary, manager, pool = make_cluster(tmp_path, clock=clock)
        try:
            for follower in pool:
                follower.close()
            primary.close()
            clock.advance(2.0)
            with pytest.raises(ReplicationError, match="no live follower"):
                manager.failover()
        finally:
            store.close()

    def test_winner_drains_its_queue_before_promoting(self, tmp_path):
        """Everything shipped before the crash is in the promoted store,
        even if the winner had not polled it yet.

        The crash is simulated with a dead-switch probe (heartbeats fail,
        nothing else happens): a real crash never runs ``Primary.close``,
        and the shipped-but-unpolled messages must survive it.
        """
        clock = FakeClock()
        store = PersistentStore(tmp_path / "primary", store=CuckooGraph(),
                                own_store=True, sync_on_commit=True,
                                compact_wal_bytes=None)
        primary = Primary(store)
        manager = FailoverManager(lease_s=1.0, clock=clock)
        primary_dead = []

        def probe():
            if primary_dead:
                raise ReplicationError("unreachable")

        for node_id in (1, 2):
            follower = Follower(store=CuckooGraph())
            primary.attach(follower)
            manager.register(node_id, follower, probe=probe)
        try:
            store.insert_edges([(1, 2), (3, 4), (5, 6)])
            primary.sync_and_pump()  # shipped into the queues, never polled
            primary_dead.append(True)
            clock.advance(2.0)
            result = manager.maybe_failover(rewire=False)
            assert result is not None
            assert sorted(result.store.edges()) == [(1, 2), (3, 4), (5, 6)]
            assert result.position.offsets[0] > 0
            result.store.close()
        finally:
            primary.close()
            store.close()


class TestRewireAndFencing:
    def test_rewire_respawns_losers_on_the_new_primary(self, tmp_path):
        clock = FakeClock()
        store = PersistentStore(tmp_path / "primary", store=CuckooGraph(),
                                own_store=True, sync_on_commit=True,
                                compact_wal_bytes=None)
        primary = Primary(store)
        manager = FailoverManager(lease_s=1.0, clock=clock)

        def respawn(new_primary, server):
            fresh = Follower(store=CuckooGraph())
            new_primary.attach(fresh)
            return fresh

        pool = []
        for node_id in (1, 2):
            follower = Follower(store=CuckooGraph())
            primary.attach(follower)
            manager.register(node_id, follower, respawn=respawn)
            pool.append(follower)
        try:
            store.insert_edge(1, 2)
            primary.sync_and_pump()
            for follower in pool:
                follower.wait_for(primary.commit_index)
            primary.close()
            clock.advance(2.0)
            result = manager.maybe_failover(path=tmp_path / "promoted")
            assert result is not None and result.node_id == 1
            assert result.primary is not None
            assert set(result.followers) == {2}
            assert manager.members == (2,)

            # The rewired topology replicates writes to the new primary.
            result.store.insert_edge(7, 8)
            result.primary.sync_and_pump()
            replacement = result.followers[2]
            replacement.wait_for(result.primary.commit_index)
            assert replacement.store.has_edge(7, 8)
            assert replacement.store.has_edge(1, 2)
            # And the manager's fresh lease holds against the new primary.
            assert manager.heartbeat() == {2: True}
            assert not manager.lease_expired

            replacement.close()
            result.primary.close()
            result.store.close()
        finally:
            store.close()

    def test_deposed_primary_is_fenced_after_failover(self, tmp_path):
        clock = FakeClock()
        store, primary, manager, pool = make_cluster(tmp_path, clock=clock)
        try:
            store.insert_edges([(1, 2), (3, 4)])
            primary.sync_and_pump()
            primary.close()
            clock.advance(2.0)
            result = manager.failover(path=tmp_path / "promoted", rewire=False)
            result.store.insert_edge(9, 10)
            result.store.checkpoint()
            promoted_state = sorted(result.store.edges())
            result.store.close()

            # The deposed primary limps back and keeps writing its own WAL,
            # then its segments are smuggled into the promoted directory:
            # recovery must replay none of them (the generation fence).
            store.insert_edges([(100, 101), (102, 103)])
            store.sync()
            store.close()
            for segment in sorted((tmp_path / "primary").glob("wal-*.bin")):
                _, records, _ = read_wal_records(segment)
                if records:
                    shutil.copy(segment,
                                tmp_path / "promoted" / segment.name)
            fenced = recover(tmp_path / "promoted", store=CuckooGraph())
            assert sorted(fenced.edges()) == promoted_state
            assert fenced.last_recovery["wal_ops"] == 0
            assert not fenced.has_edge(100, 101)
            fenced.close()
        finally:
            if not store.closed:
                store.close()


class TestNetworkedFailover:
    def test_remote_cluster_elects_and_serves_over_tcp(self, tmp_path):
        """The whole loop over real sockets: heartbeats through the
        replication connections, election on silence, the winner serving a
        new TCP endpoint, and a fresh follower attaching to it."""
        store = PersistentStore(tmp_path / "primary",
                                store=ShardedCuckooGraph(num_shards=2),
                                own_store=True, sync_on_commit=True,
                                compact_wal_bytes=None)
        primary = Primary(store)
        server = ReplicationServer(primary)
        manager = FailoverManager(lease_s=0.4)
        followers = {
            node_id: RemoteFollower(server.address,
                                    store=ShardedCuckooGraph(num_shards=2),
                                    node_id=node_id)
            for node_id in (1, 2)
        }
        for node_id, follower in followers.items():
            manager.register(node_id, follower)
        try:
            store.insert_edges([(1, 2), (3, 4)])
            primary.sync_and_pump()
            for follower in followers.values():
                follower.wait_for(primary.commit_index, timeout=10.0)
            assert all(manager.heartbeat().values())

            # The primary's whole process "dies": server, tailer, store.
            server.close()
            primary.close()
            store.close()

            result = None
            deadline = time.monotonic() + 10.0
            while result is None and time.monotonic() < deadline:
                result = manager.maybe_failover(
                    path=tmp_path / "promoted", rewire=False,
                    listen=("127.0.0.1", 0))
                time.sleep(0.05)
            assert result is not None, "election never fired"
            assert result.node_id == 1
            assert result.server is not None
            assert sorted(result.store.edges()) == [(1, 2), (3, 4)]

            # The new primary serves: writes replicate to a fresh attach.
            result.store.insert_edge(5, 6)
            result.primary.sync_and_pump()
            rejoined = RemoteFollower(result.server.address,
                                      store=ShardedCuckooGraph(num_shards=2),
                                      node_id=9)
            assert sorted(rejoined.store.edges()) == [(1, 2), (3, 4), (5, 6)]
            rejoined.close()
            followers[2].close()
            result.server.close()
            result.primary.close()
            result.store.close()
        finally:
            for follower in followers.values():
                if not follower.closed and not follower.promoted:
                    follower.close()
