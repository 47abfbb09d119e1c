"""Socket transport: framing, bootstrap, shipping, heartbeats, teardown.

The wire contract under test: a :class:`RemoteFollower` attached through a
:class:`ReplicationServer` is observably identical to an in-process
follower -- same commit indexes, same ``position``, same store state --
with the bootstrap arriving as a snapshot *file stream* plus backfill
frames (never a shared filesystem), and death surfacing as a closed
channel that wakes any blocked barrier.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro import CuckooGraph, ShardedCuckooGraph
from repro.core.errors import ReplicationError
from repro.persist import PersistentStore
from repro.replicate import (
    Follower,
    GenerationBump,
    Primary,
    RecordShipment,
    RemoteFollower,
    ReplicationServer,
    decode_message,
    encode_message,
)


def make_served_primary(tmp_path, *, num_shards=2, **store_kwargs):
    store_kwargs.setdefault("sync_on_commit", True)
    store_kwargs.setdefault("compact_wal_bytes", None)
    store = PersistentStore(
        tmp_path / "primary",
        store=ShardedCuckooGraph(num_shards=num_shards),
        own_store=True,
        **store_kwargs,
    )
    primary = Primary(store)
    server = ReplicationServer(primary)
    return store, primary, server


class TestMessageCodec:
    def test_record_shipment_roundtrip(self):
        message = RecordShipment(
            commit_index=41, segment=3, generation=7,
            ops=(("insert", 1, 2), ("delete", -5, 9), ("insert_w", 3, 4, 11)),
            end_offset=123456789)
        assert decode_message(encode_message(message)) == message

    def test_generation_bump_roundtrip(self):
        message = GenerationBump(commit_index=99, generation=12)
        assert decode_message(encode_message(message)) == message

    def test_unknown_type_is_refused(self):
        with pytest.raises(ReplicationError, match="unknown"):
            decode_message(bytes([200]))
        with pytest.raises(ReplicationError, match="cannot encode"):
            encode_message(object())


class TestRemoteAttachAndShipping:
    def test_bootstrap_ships_wal_backfill(self, tmp_path):
        """History committed before the attach arrives as backfill frames."""
        store, primary, server = make_served_primary(tmp_path)
        try:
            store.insert_edges([(1, 2), (3, 4), (5, 6)])
            replica = RemoteFollower(server.address,
                                     store=ShardedCuckooGraph(num_shards=2))
            assert sorted(replica.store.edges()) == sorted(store.edges())
            assert replica.commit_index == primary.commit_index
            assert replica.position == primary.position
            replica.close()
        finally:
            server.close()
            primary.close()
            store.close()

    def test_bootstrap_streams_snapshot_file(self, tmp_path):
        """A checkpointed primary bootstraps from the snapshot chunk stream
        (there are no WAL records left to backfill)."""
        store, primary, server = make_served_primary(tmp_path)
        try:
            store.insert_edges([(i, i + 100) for i in range(50)])
            store.checkpoint()  # folds everything into snapshot.bin
            replica = RemoteFollower(server.address,
                                     store=ShardedCuckooGraph(num_shards=2))
            assert sorted(replica.store.edges()) == sorted(store.edges())
            assert replica.generation == store.generation
            replica.close()
        finally:
            server.close()
            primary.close()
            store.close()

    def test_live_shipping_and_barrier(self, tmp_path):
        store, primary, server = make_served_primary(tmp_path)
        replica = RemoteFollower(server.address,
                                 store=ShardedCuckooGraph(num_shards=2))
        try:
            store.insert_edges([(1, 2), (2, 3)])
            store.delete_edge(1, 2)
            primary.sync_and_pump()
            replica.wait_for(primary.commit_index, timeout=10.0)
            assert not replica.store.has_edge(1, 2)
            assert replica.store.has_edge(2, 3)
            assert replica.commit_index == primary.commit_index
            assert replica.position == primary.position
        finally:
            replica.close()
            server.close()
            primary.close()
            store.close()

    def test_generation_bump_crosses_the_wire(self, tmp_path):
        store, primary, server = make_served_primary(tmp_path)
        replica = RemoteFollower(server.address,
                                 store=ShardedCuckooGraph(num_shards=2))
        try:
            store.insert_edges([(1, 2), (3, 4)])
            primary.sync_and_pump()
            store.checkpoint()
            store.insert_edge(5, 6)
            primary.sync_and_pump()
            replica.wait_for(primary.commit_index, timeout=10.0)
            assert replica.generation == store.generation
            assert replica.store.has_edge(5, 6)
            assert replica.position == primary.position
        finally:
            replica.close()
            server.close()
            primary.close()
            store.close()

    def test_matches_inprocess_follower_exactly(self, tmp_path):
        """One stream, both transports: identical indexes and stores."""
        store, primary, server = make_served_primary(tmp_path)
        local = Follower(store=ShardedCuckooGraph(num_shards=2))
        primary.attach(local)
        remote = RemoteFollower(server.address,
                                store=ShardedCuckooGraph(num_shards=2))
        try:
            store.insert_edges([(i, (i * 7) % 23) for i in range(40)])
            store.delete_edges([(i, (i * 7) % 23) for i in range(0, 40, 3)])
            primary.sync_and_pump()
            local.wait_for(primary.commit_index)
            remote.wait_for(primary.commit_index, timeout=10.0)
            assert remote.commit_index == local.commit_index
            assert remote.position == local.position
            assert sorted(remote.store.edges()) == sorted(local.store.edges())
        finally:
            remote.close()
            local.close()
            server.close()
            primary.close()
            store.close()


class TestHeartbeatAndLag:
    def test_ping_reports_logged_commit_index(self, tmp_path):
        store, primary, server = make_served_primary(
            tmp_path, sync_on_commit=False)
        replica = RemoteFollower(server.address,
                                 store=ShardedCuckooGraph(num_shards=2))
        try:
            assert replica.ping(timeout=5.0) == 0
            assert replica.lag() == 0
            # Committed but unshipped: a remote replica only learns how far
            # behind it is from what the primary *advertises* -- the pong.
            store.insert_edges([(1, 2), (3, 4)])
            store.insert_edge(5, 6)
            assert replica.ping(timeout=5.0) == primary.logged_commit_index
            assert replica.lag() == primary.logged_commit_index
            primary.sync_and_pump()
            replica.wait_for(primary.commit_index, timeout=10.0)
            assert replica.lag() == 0
            assert replica.last_contact is not None
        finally:
            replica.close()
            server.close()
            primary.close()
            store.close()

    def test_ping_fails_after_server_death(self, tmp_path):
        store, primary, server = make_served_primary(tmp_path)
        replica = RemoteFollower(server.address,
                                 store=ShardedCuckooGraph(num_shards=2))
        try:
            server.close()
            with pytest.raises(ReplicationError):
                replica.ping(timeout=0.5)
        finally:
            replica.close()
            primary.close()
            store.close()


class TestLifecycle:
    def test_follower_close_detaches_server_side(self, tmp_path):
        store, primary, server = make_served_primary(tmp_path)
        replica = RemoteFollower(server.address,
                                 store=ShardedCuckooGraph(num_shards=2))
        try:
            assert len(primary.followers) == 1
            replica.close()
            deadline = time.monotonic() + 5.0
            while primary.followers and time.monotonic() < deadline:
                time.sleep(0.01)  # the goodbye frame crosses a real socket
            assert not primary.followers
            # The subscriber is gone before the next pump: no eviction path,
            # no error path, just a clean goodbye.
            store.insert_edge(1, 2)
            primary.sync_and_pump()
            assert primary.evictions == 0
        finally:
            server.close()
            primary.close()
            store.close()

    def test_server_death_wakes_blocked_barrier(self, tmp_path):
        """The close-notifies contract across the wire: a barrier blocked on
        a socket channel raises promptly when the server dies."""
        store, primary, server = make_served_primary(tmp_path)
        replica = RemoteFollower(server.address,
                                 store=ShardedCuckooGraph(num_shards=2))
        try:
            outcome = {}

            def blocked_reader():
                started = time.monotonic()
                try:
                    replica.wait_for(10_000, timeout=30.0)
                except ReplicationError as exc:
                    outcome["error"] = str(exc)
                outcome["elapsed"] = time.monotonic() - started

            reader = threading.Thread(target=blocked_reader)
            reader.start()
            time.sleep(0.1)
            server.close()
            reader.join(timeout=5.0)
            assert not reader.is_alive(), "barrier survived the server death"
            assert "detached" in outcome["error"]
            assert outcome["elapsed"] < 3.0, outcome
        finally:
            replica.close()
            primary.close()
            store.close()

    def test_dead_replica_is_evicted_and_rest_keep_shipping(self, tmp_path):
        """Socket flavor of broadcast isolation: hard-close one replica's
        socket, pump, and the survivor still gets every record."""
        store, primary, server = make_served_primary(tmp_path)
        victim = RemoteFollower(server.address,
                                store=ShardedCuckooGraph(num_shards=2))
        survivor = RemoteFollower(server.address,
                                  store=ShardedCuckooGraph(num_shards=2))
        try:
            # Kill the victim's socket without any goodbye (a crash).
            victim._channel._close()
            deadline = time.monotonic() + 10.0
            evicted = False
            while not evicted and time.monotonic() < deadline:
                store.insert_edge(int(time.monotonic() * 1000) % 997,
                                  int(time.monotonic() * 1000) % 991 + 1000)
                primary.sync_and_pump()  # must never raise
                evicted = len(primary.followers) == 1
                time.sleep(0.01)
            assert evicted, "dead socket replica was never evicted"
            survivor.wait_for(primary.commit_index, timeout=10.0)
            assert sorted(survivor.store.edges()) == sorted(store.edges())
        finally:
            victim.close()
            survivor.close()
            server.close()
            primary.close()
            store.close()

    def test_reconnects_leave_no_dead_handler_threads(self, tmp_path):
        """A handler drops its own thread on the way out, so a server whose
        followers keep reconnecting holds only the handlers still serving."""
        store, primary, server = make_served_primary(tmp_path)
        try:
            for _ in range(20):
                RemoteFollower(server.address,
                               store=ShardedCuckooGraph(num_shards=2)).close()
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                with server._lock:
                    threads = list(server._threads)
                live = [thread for thread in threads if thread.is_alive()]
                if len(threads) <= len(live):
                    break
                time.sleep(0.01)
            assert len(threads) <= len(live), (len(threads), len(live))
        finally:
            server.close()
            primary.close()
            store.close()

    def test_connect_to_nothing_raises(self, tmp_path):
        with pytest.raises(ReplicationError, match="cannot reach"):
            RemoteFollower(("127.0.0.1", 1), store=CuckooGraph(),
                           connect_timeout=0.5)
