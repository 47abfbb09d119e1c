"""The commit feed: replication ships what the commit path hands it.

``PersistentStore`` queues, for every commit whose apply succeeded, one
entry per touched segment; an entry leaves the feed once an fsync covering
its record has returned; ``Primary.pump()`` ships what left.  These tests
pin the semantics the tailer used to get from re-reading the segment files:
nothing unsynced or rolled back ever ships, order within a segment is append
order, a follower's position is always recoverable from the directory -- and
the one thing the tailer could not do, shipping without opening a file.
"""

import builtins
import random

import pytest

from repro import CuckooGraph, ShardedCuckooGraph
from repro.core.errors import CapacityError, ReplicationError
from repro.persist import PersistentStore, recover
from repro.replicate import Follower, Primary, RecordShipment, ReplicationGroup
from repro.service import GraphClient, GraphService, ServiceError

from ..persist.test_group_commit import SHARDS, _FsyncProbe, edges_on_every_shard
from .test_pitr import copy_dir

def sharded_store(path, num_shards=SHARDS, **kwargs):
    kwargs.setdefault("compact_wal_bytes", None)
    kwargs.setdefault("sync_on_commit", False)
    return PersistentStore(path, store=ShardedCuckooGraph(num_shards=num_shards),
                           own_store=True, **kwargs)


def recovered_edges(source, destination, num_shards=SHARDS, upto=None):
    replayed = recover(copy_dir(source, destination),
                       store=ShardedCuckooGraph(num_shards=num_shards), upto=upto)
    try:
        return sorted(replayed.edges())
    finally:
        replayed.close()


@pytest.fixture
def fsync(monkeypatch):
    """``repro.persist.wal.os.fsync`` replaced by a probe that, once armed,
    fails the next call (PR 15's seam)."""
    probe = _FsyncProbe(fail_at=1)
    monkeypatch.setattr("repro.persist.wal.os.fsync", probe)
    return probe


def spy_on_shipments(primary, log):
    broadcast = primary._broadcast

    def spied(message):
        log.append(message)
        broadcast(message)

    primary._broadcast = spied


# --------------------------------------------------------------------- #
# (a) steady state reads nothing back
# --------------------------------------------------------------------- #

def test_steady_state_shipping_opens_no_file(tmp_path, monkeypatch):
    store = sharded_store(tmp_path / "p")
    group = ReplicationGroup(store, replicas=1)
    follower = group.followers[0]
    try:
        store.insert_edges(edges_on_every_shard(2))  # every segment file is open now
        store.sync()
        group.advance()

        def refuse(*args, **kwargs):
            raise AssertionError(f"steady-state shipping touched a file: {args}")

        with monkeypatch.context() as patched:
            for module in ("repro.persist.wal", "repro.persist.store",
                           "repro.replicate.primary"):
                patched.setattr(f"{module}.read_wal_records", refuse)
            patched.setattr(builtins, "open", refuse)
            for round_index in range(5):
                store.insert_edges(edges_on_every_shard(3, start=1000 * (round_index + 1)))
                store.delete_edge(*edges_on_every_shard(1)[round_index % SHARDS])
                store.sync()
                shipped = group.advance()
                assert shipped == SHARDS + 1
                group.refresh(follower)
                group.primary.pump()
                group.primary.sync_and_pump()
        assert sorted(follower.store.edges()) == sorted(store.edges())
        assert follower.position == group.primary.position
    finally:
        group.close()
        store.close()


def test_an_idle_barrier_calls_neither_sync_nor_the_feed_again(tmp_path):
    """Nothing committed since the last full pump: ``sync_and_pump`` is a
    length test and an empty take, whatever the segment count."""
    store = sharded_store(tmp_path / "p")
    group = ReplicationGroup(store, replicas=1)
    try:
        store.insert_edges(edges_on_every_shard(2))
        group.refresh(group.followers[0])
        syncs = []
        store.sync = lambda: syncs.append(1)
        for _ in range(3):
            assert group.refresh(group.followers[0]) == 0
        assert syncs == []
        del store.sync
    finally:
        group.close()
        store.close()


# --------------------------------------------------------------------- #
# (b) only fsynced commits ship
# --------------------------------------------------------------------- #

def test_failed_fsync_ships_nothing_and_fail_stops_the_service(tmp_path, fsync):
    store = sharded_store(tmp_path / "p", num_shards=2)
    service = GraphService(store, own_store=True, durability="batch", replicas=1)
    service.start()
    group = service.replication
    follower = group.followers[0]
    shipped = []
    spy_on_shipments(group.primary, shipped)
    try:
        # Both segment files exist before the fault: creating one fsyncs too.
        warm = edges_on_every_shard(1, start=100, num_shards=2)
        assert service.insert_edges(warm).result(timeout=30) == 2
        assert service.insert_edge(1, 2).result(timeout=30) is True
        before = follower.commit_index
        assert before == group.primary.commit_index == 3
        del shipped[:2]

        fsync.armed = True
        with pytest.raises(OSError, match="synthetic fsync failure"):
            service.insert_edge(3, 4).result(timeout=30)
        fsync.armed = False
        assert service.durability_failed is not None
        with pytest.raises(ServiceError, match="fail-stopped"):
            service.insert_edge(5, 6)
        # Applied on the primary, not durable, therefore not shipped.
        assert store.has_edge(3, 4)
        assert group.primary.pump() == 0
        assert follower.poll() == 0
        assert follower.commit_index == before
        assert follower.lag() == 1
        assert not follower.store.has_edge(3, 4)

        # The next successful sync() retries the fsync; the commit then ships
        # once, and nothing ships twice.
        store.sync()
        assert group.advance() == 1
        assert group.advance() == 0
        assert follower.commit_index == before + 1
        assert follower.store.has_edge(3, 4)
        assert [m.ops for m in shipped if isinstance(m, RecordShipment)] == \
            [(("insert", 1, 2),), (("insert", 3, 4),)]
    finally:
        service.close()


@pytest.mark.parametrize("first", [[(1, 2), (1, 3)], [(1, 2)]], ids=["batch", "one-op"])
@pytest.mark.parametrize("sync_on_commit", [False, True])
def test_a_commit_behind_a_failed_fsync_ships_first_when_it_ships(
        tmp_path, fsync, sync_on_commit, first):
    """Two commits on one segment, the first one's fsync fails (on a helper
    thread for the batch, inline for the single operation): whichever fsync
    finally covers both, they leave the feed in append order."""
    def commit_first():
        if len(first) == 1:
            store.insert_edge(*first[0])
        else:
            store.insert_edges(first)

    store = PersistentStore(tmp_path / "p", store=CuckooGraph(), own_store=True,
                            sync_on_commit=sync_on_commit, compact_wal_bytes=None)
    primary = Primary(store)
    follower = Follower(store=CuckooGraph())
    primary.attach(follower)
    shipped = []
    try:
        store.insert_edges([(8, 8), (8, 9)])  # the segment file exists before the fault
        assert primary.sync_and_pump() == 1
        spy_on_shipments(primary, shipped)
        fsync.armed = True
        if sync_on_commit:
            with pytest.raises(OSError):
                commit_first()
        else:
            commit_first()
            with pytest.raises(OSError):
                store.sync()
        fsync.armed = False
        assert primary.pump() == 0
        assert (primary.commit_index, primary.logged_commit_index) == (1, 2)

        store.delete_edges([(1, 2), (9, 9)])  # same segment, behind the first
        if not sync_on_commit:
            assert primary.pump() == 0  # appended, not synced
            store.sync()
        assert primary.pump() == 2
        assert [m.ops[0] for m in shipped] == [("insert", 1, 2), ("delete", 1, 2)]
        assert [m.commit_index for m in shipped] == [2, 3]
        follower.wait_for(3)
        assert sorted(follower.store.edges()) == sorted(store.edges()) == \
            first[1:] + [(8, 8), (8, 9)]
        assert follower.position == primary.position
    finally:
        follower.close()
        primary.close()
        store.close()


# --------------------------------------------------------------------- #
# (c) a rolled-back commit never enters the feed
# --------------------------------------------------------------------- #

class _FullShard(CuckooGraph):
    name = "FullShard"

    def insert_edge(self, u, v):
        if (u, v) == (666, 666):
            raise CapacityError("synthetic: nowhere to put (666, 666)")
        return super().insert_edge(u, v)


@pytest.mark.parametrize("sync_on_commit", [False, True])
def test_a_failed_apply_never_reaches_the_feed(tmp_path, sync_on_commit):
    inner = ShardedCuckooGraph(num_shards=SHARDS, shard_factory=_FullShard)
    store = PersistentStore(tmp_path / "p", store=inner, own_store=True,
                            sync_on_commit=sync_on_commit, compact_wal_bytes=None)
    primary = Primary(store)
    follower = Follower(store=ShardedCuckooGraph(num_shards=SHARDS))
    primary.attach(follower)
    try:
        store.insert_edges(edges_on_every_shard(2))
        primary.sync_and_pump()
        refused = edges_on_every_shard(3, start=50_000)
        refused[len(refused) // 2] = (666, 666)
        with pytest.raises(CapacityError):
            store.insert_edges(refused)
        with pytest.raises(CapacityError):
            store.insert_edge(666, 666)
        assert store.feed_backlog == 0
        assert primary.logged_commit_index == primary.commit_index
        assert primary.sync_and_pump() == 0
        store.insert_edges(edges_on_every_shard(1, start=90_000))
        assert primary.sync_and_pump() == SHARDS
        follower.wait_for(primary.commit_index)
        # The follower holds what the log holds -- not the part of the refused
        # batch that memory kept.
        assert sorted(follower.store.edges()) == \
            recovered_edges(tmp_path / "p", tmp_path / "copy")
        assert sorted(follower.store.edges()) == \
            recovered_edges(tmp_path / "p", tmp_path / "cut", upto=follower.position)
    finally:
        follower.close()
        primary.close()
        store.close()


# --------------------------------------------------------------------- #
# (d) a follower's position is always recoverable from the directory
# --------------------------------------------------------------------- #

def test_follower_position_recovers_to_the_follower_state_at_every_probe(
        tmp_path, fuzz_seed):
    rng = random.Random(fuzz_seed)
    store = sharded_store(tmp_path / "p", sync_on_commit=bool(fuzz_seed % 2))
    primary = Primary(store)
    follower = Follower(store=ShardedCuckooGraph(num_shards=SHARDS))
    primary.attach(follower)
    live = set()

    def probe(name):
        primary.sync_and_pump()
        follower.wait_for(primary.commit_index)
        assert sorted(follower.store.edges()) == sorted(live), name
        assert sorted(follower.store.edges()) == recovered_edges(
            tmp_path / "p", tmp_path / name, upto=follower.position), name

    try:
        for round_index in range(12):
            batch = [(rng.randrange(1, 300), rng.randrange(1, 40))
                     for _ in range(rng.randrange(1, 30))]
            if live and rng.random() < 0.35:
                batch = rng.sample(sorted(live), k=min(len(live), len(batch)))
                store.delete_edges(batch)
                live.difference_update(batch)
            else:
                store.insert_edges(batch)
                live.update(batch)
            if round_index == 7:
                probe("before-compaction")
                store.checkpoint()
                assert primary.pump() == 0  # the bump alone
                follower.poll()
                assert follower.generation == store.generation == 1
            if rng.random() < 0.6:
                probe(f"probe-{round_index}")
        probe("final")
        assert follower.position.generation == 1
    finally:
        follower.close()
        primary.close()
        store.close()


# --------------------------------------------------------------------- #
# (e) a reopened directory: the follower gets the history too
# --------------------------------------------------------------------- #

def test_reopened_directory_backfills_the_follower(tmp_path):
    path = tmp_path / "svc"
    first = edges_on_every_shard(5)
    client = GraphClient.durable(path, num_shards=SHARDS, replicas=1)
    assert client.insert_edges(first) == len(first)
    assert client.delete_edge(*first[0]) is True
    client.close()

    client = GraphClient.durable(path, num_shards=SHARDS, replicas=1)
    try:
        group = client.service.replication
        follower = group.followers[0]
        expected = sorted(first[1:])
        assert sorted(client.service.store.edges()) == expected
        # Before any new commit: backfill alone brought the WAL history over.
        assert sorted(follower.store.edges()) == expected
        assert follower.position == group.primary.position
        assert all(offset > 16 for offset in follower.position.offsets)

        assert client.insert_edge(7_000, 7_001) is True
        assert client.has_edge(7_000, 7_001) is True  # served by the replica
        assert sorted(follower.store.edges()) == sorted(expected + [(7_000, 7_001)])
        assert sorted(follower.store.edges()) == recovered_edges(
            path, tmp_path / "cut", upto=follower.position)
    finally:
        client.close()


# --------------------------------------------------------------------- #
# (f) the feed exists only while a primary is subscribed
# --------------------------------------------------------------------- #

def test_no_primary_no_feed_and_close_gives_it_back(tmp_path):
    store = PersistentStore(tmp_path / "p", store=CuckooGraph(), own_store=True,
                            sync_on_commit=False, compact_wal_bytes=None)
    try:
        for u in range(10_000):
            store.insert_edge(u, u + 1)
        assert store._feed is None and store.feed_backlog == 0
        assert store.take_feed() == []

        primary = Primary(store)
        with pytest.raises(ReplicationError, match="already feeds a replication primary"):
            Primary(store)
        store.insert_edges([(1, 5), (2, 5)])
        store.insert_edge(3, 5)
        assert store.feed_backlog == primary.logged_commit_index == 2
        primary.close()
        assert store._feed is None and store.feed_backlog == 0
        store.insert_edge(4, 5)
        assert store._feed is None

        # A closed primary's feed is free for the next one, which starts at
        # the end of the log: what was committed in between is backfill.
        successor = Primary(store)
        follower = Follower(store=CuckooGraph())
        successor.attach(follower)
        assert successor.commit_index == 0
        assert follower.store.has_edge(4, 5) and follower.store.has_edge(3, 5)
        store.insert_edge(6, 5)
        assert successor.sync_and_pump() == 1
        follower.wait_for(1)
        assert sorted(follower.store.edges()) == sorted(store.edges())
        follower.close()
        successor.close()
    finally:
        store.close()
