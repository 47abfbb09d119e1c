"""Primary/follower log shipping: ordering, barriers, backfill, compaction."""

import pytest

from repro import CuckooGraph, ShardedCuckooGraph, WeightedCuckooGraph
from repro.core.errors import ReplicationError
from repro.persist import DELETE, INSERT, INSERT_WEIGHTED, PersistentStore, apply_record
from repro.replicate import (
    Follower,
    GenerationBump,
    InProcessTransport,
    Primary,
    RecordShipment,
    ReplicationGroup,
)


def make_primary(tmp_path, num_shards=2, sync_on_commit=True, **kwargs):
    store = PersistentStore(
        tmp_path / "primary",
        store=ShardedCuckooGraph(num_shards=num_shards),
        own_store=True,
        sync_on_commit=sync_on_commit,
        compact_wal_bytes=kwargs.pop("compact_wal_bytes", None),
    )
    return store, Primary(store, **kwargs)


def test_shipped_records_converge_the_follower(tmp_path):
    store, primary = make_primary(tmp_path)
    follower = Follower(store=ShardedCuckooGraph(num_shards=2))
    primary.attach(follower)

    store.insert_edges([(u, u + 1) for u in range(30)])
    store.delete_edges([(0, 1), (4, 5)])
    shipped = primary.pump()
    assert shipped == primary.commit_index > 0

    applied = follower.poll()
    assert applied == shipped
    assert follower.commit_index == primary.commit_index
    assert sorted(follower.store.edges()) == sorted(store.edges())
    assert follower.lag() == 0
    follower.close()
    primary.close()
    store.close()


def test_commit_index_is_monotonic_and_pump_is_incremental(tmp_path):
    store, primary = make_primary(tmp_path, num_shards=1)
    follower = Follower(store=CuckooGraph())
    primary.attach(follower)

    indices = []
    for u in range(5):
        store.insert_edge(u, u + 1)
        primary.pump()
        follower.poll()
        indices.append(follower.commit_index)
    assert indices == [1, 2, 3, 4, 5]
    assert primary.pump() == 0  # nothing new: the cursor does not re-ship
    follower.close()
    primary.close()
    store.close()


def test_wait_for_is_a_read_your_writes_barrier(tmp_path):
    store, primary = make_primary(tmp_path, num_shards=2)
    follower = Follower(store=ShardedCuckooGraph(num_shards=2))
    primary.attach(follower)

    store.insert_edges([(u, u + 1) for u in range(12)])
    primary.pump()
    # Nothing applied yet; the barrier drains the channel to the index.
    assert follower.commit_index == 0
    reached = follower.wait_for(primary.commit_index)
    assert reached == primary.commit_index
    assert sorted(follower.store.edges()) == sorted(store.edges())

    with pytest.raises(ReplicationError, match="barrier timed out"):
        follower.wait_for(primary.commit_index + 1, timeout=0.05)
    follower.close()
    primary.close()
    store.close()


def test_unsynced_commits_are_invisible_until_flushed(tmp_path):
    """The tailer ships *committed* records: a buffered append is not one."""
    store, primary = make_primary(tmp_path, num_shards=1, sync_on_commit=False)
    follower = Follower(store=CuckooGraph())
    primary.attach(follower)

    store.insert_edges([(1, 2), (3, 4)])
    lagging = primary.pump()  # buffered: may see none of it
    store.sync()
    flushed = primary.pump()
    assert lagging + flushed == 1  # exactly one group commit ships in total
    follower.wait_for(primary.commit_index)
    assert sorted(follower.store.edges()) == [(1, 2), (3, 4)]
    follower.close()
    primary.close()
    store.close()


def test_attach_backfills_history_and_subscribes(tmp_path):
    store, primary = make_primary(tmp_path)
    store.insert_edges([(u, u + 1) for u in range(20)])
    primary.pump()  # shipped with no followers attached: fan-out of zero

    late = Follower(store=ShardedCuckooGraph(num_shards=2))
    primary.attach(late)
    # Backfill alone made it current, at the primary's commit index.
    assert late.commit_index == primary.commit_index
    assert sorted(late.store.edges()) == sorted(store.edges())
    assert late.position == primary.position

    # And the subscription carries the future.
    store.insert_edge(100, 200)
    primary.pump()
    late.wait_for(primary.commit_index)
    assert late.store.has_edge(100, 200)
    late.close()
    primary.close()
    store.close()


def test_attach_requires_an_empty_follower_store(tmp_path):
    store, primary = make_primary(tmp_path)
    dirty = ShardedCuckooGraph(num_shards=2)
    dirty.insert_edge(1, 2)
    with pytest.raises(ReplicationError, match="empty store"):
        primary.attach(Follower(store=dirty))
    dirty.close()
    primary.close()
    store.close()


def test_follower_of_a_different_scheme_converges(tmp_path):
    """The stream is logical: a plain CuckooGraph can follow a sharded primary."""
    store, primary = make_primary(tmp_path, num_shards=3)
    follower = Follower(store=CuckooGraph())
    primary.attach(follower)
    store.insert_edges([(u, v) for u in range(10) for v in range(3)])
    store.delete_edges([(0, 0), (9, 2)])
    primary.pump()
    follower.wait_for(primary.commit_index)
    assert sorted(follower.store.edges()) == sorted(store.edges())
    follower.close()
    primary.close()
    store.close()


# A sharded front-end has ``insert_weighted_edge`` whether or not its shards
# are weighted, so the refusal must read ``store.weighted``, not the method.
@pytest.mark.parametrize("weighted, plain", [
    (WeightedCuckooGraph, CuckooGraph),
    (lambda: ShardedCuckooGraph(num_shards=2, weighted=True),
     lambda: ShardedCuckooGraph(num_shards=2)),
], ids=["single", "sharded"])
def test_weighted_stream_into_unweighted_follower_is_refused(tmp_path, weighted, plain):
    store = PersistentStore(tmp_path / "p", store=weighted(),
                            own_store=True, compact_wal_bytes=None)
    primary = Primary(store)
    follower = Follower(store=plain())
    primary.attach(follower)
    store.insert_weighted_edge(1, 2, 5)
    primary.pump()
    with pytest.raises(ReplicationError, match="not weighted"):
        follower.poll()
    follower.close()
    primary.close()
    store.close()


def test_a_shipment_reaches_the_follower_store_as_batch_calls():
    """``apply_record`` sends each same-tag run of a record as one
    ``insert_edges`` / ``delete_edges`` call (a run of one and weighted ops
    stay per-op), and leaves the state per-op application would."""
    calls = []

    class Spy:
        """Records the calls that reach the follower store, then delegates."""
        name = "Spy"

        def __init__(self):
            self.inner = WeightedCuckooGraph()

        def __getattr__(self, method):
            def call(*args):
                size = len(args[0]) if method.endswith("edges") else 1
                calls.append((method, size))
                return getattr(self.inner, method)(*args)
            return call

    ops = ([(INSERT, u, u + 1) for u in range(5)] + [(DELETE, 0, 1), (DELETE, 9, 9)]
           + [(INSERT, 7, 8)] + [(INSERT_WEIGHTED, 7, 8, 3), (INSERT_WEIGHTED, 1, 2, 2)]
           + [(INSERT, 1, 2), (INSERT, 1, 2)])
    spied, reference = Spy(), WeightedCuckooGraph()
    apply_record(spied, ops)
    assert calls == [
        ("insert_edges", 5), ("delete_edges", 2), ("insert_edge", 1),
        ("insert_weighted_edge", 1), ("insert_weighted_edge", 1), ("insert_edges", 2)]
    for tag, u, v, *delta in ops:
        if tag == INSERT:
            reference.insert_edge(u, v)
        elif tag == DELETE:
            reference.delete_edge(u, v)
        else:
            reference.insert_weighted_edge(u, v, *delta)
    assert sorted(spied.inner.weighted_edges()) == sorted(reference.weighted_edges())


def test_compaction_mid_stream_loses_nothing(tmp_path):
    """The pre-truncation hook ships the tail before the checkpoint folds it."""
    store, primary = make_primary(tmp_path, num_shards=2, sync_on_commit=False)
    follower = Follower(store=ShardedCuckooGraph(num_shards=2))
    primary.attach(follower)

    store.insert_edges([(u, u + 1) for u in range(25)])
    # Deliberately do NOT pump: the records are buffered and unshipped when
    # the explicit checkpoint fires.  The hook must flush + ship them first.
    store.checkpoint()
    store.insert_edge(500, 600)  # post-compaction commit, new generation
    store.sync()
    primary.pump()
    follower.wait_for(primary.commit_index)

    assert follower.generation == store.generation == 1
    assert sorted(follower.store.edges()) == sorted(store.edges())
    # The follower's position is relative to the *new* generation's segments.
    assert follower.position.generation == 1
    follower.close()
    primary.close()
    store.close()


def test_threshold_compaction_mid_stream_loses_nothing(tmp_path):
    store, primary = make_primary(tmp_path, num_shards=1,
                                  compact_wal_bytes=512)
    follower = Follower(store=ShardedCuckooGraph(num_shards=1))
    primary.attach(follower)
    for u in range(200):
        store.insert_edge(u, u + 1)
        if u % 17 == 0:
            primary.pump()
            follower.poll()
    assert store.compactions >= 1
    primary.pump()
    follower.wait_for(primary.commit_index)
    assert sorted(follower.store.edges()) == sorted(store.edges())
    assert follower.generation == store.generation
    follower.close()
    primary.close()
    store.close()


def test_pump_survives_variable_size_regrowth_after_compaction(tmp_path):
    """Regression: a segment regrown past a stale cursor must not misparse.

    After a compaction the tailer's cursor points into the *old* log; when
    later, differently-sized commits regrow the segment past that offset,
    a naive seek would land mid-record and misread payload bytes as
    framing (WalCorruptError out of the user's mutation call).  The
    generation guard must turn this into a clean cursor reset instead.
    """
    store = PersistentStore(tmp_path / "p", scheme="cuckoo",
                            compact_wal_bytes=500, sync_on_commit=True)
    primary = Primary(store)
    follower = Follower(store=CuckooGraph())
    primary.attach(follower)

    rng_edges = [[(t * 100 + k, t) for k in range(1 + (t * 7) % 13)]
                 for t in range(60)]
    for batch in rng_edges:  # variable-size records; compaction fires inside
        store.insert_edges(batch)
    assert store.compactions >= 1
    primary.pump()
    follower.wait_for(primary.commit_index)
    assert sorted(follower.store.edges()) == sorted(store.edges())
    follower.close()
    primary.close()
    store.close()


def test_generation_bump_message_resets_position_only(tmp_path):
    store, primary = make_primary(tmp_path, num_shards=1)
    follower = Follower(store=CuckooGraph())
    primary.attach(follower)
    store.insert_edge(1, 2)
    primary.pump()
    follower.poll()
    edges_before = sorted(follower.store.edges())

    store.checkpoint()
    primary.pump()  # observes the new generation, broadcasts the bump
    messages = follower.poll()
    assert messages == 0  # a bump is not a record
    assert follower.generation == 1
    assert sorted(follower.store.edges()) == edges_before
    follower.close()
    primary.close()
    store.close()


def test_detach_stops_the_stream_and_close_is_idempotent(tmp_path):
    store, primary = make_primary(tmp_path)
    follower = Follower(store=ShardedCuckooGraph(num_shards=2))
    primary.attach(follower)
    primary.detach(follower)
    assert not follower.attached
    store.insert_edge(1, 2)
    primary.pump()
    assert follower.poll() == 0
    follower.close()
    follower.close()
    primary.close()
    primary.close()
    store.close()


def test_primary_requires_a_persistent_store():
    plain = ShardedCuckooGraph(num_shards=2)
    with pytest.raises(ReplicationError, match="PersistentStore"):
        Primary(plain)
    plain.close()


def test_transport_seam_sees_the_message_vocabulary(tmp_path):
    """A custom transport observes shipments and bumps -- the socket seam."""
    log = []

    class SpyTransport(InProcessTransport):
        def connect(self):
            channel = super().connect()
            original = channel.send

            def send(message):
                log.append(message)
                original(message)

            channel.send = send
            return channel

    store, primary = make_primary(tmp_path, num_shards=1,
                                  transport=SpyTransport())
    follower = Follower(store=CuckooGraph())
    primary.attach(follower)
    store.insert_edge(1, 2)
    primary.pump()
    store.checkpoint()
    primary.pump()
    follower.poll()

    kinds = [type(message) for message in log]
    assert RecordShipment in kinds and GenerationBump in kinds
    shipment = next(m for m in log if isinstance(m, RecordShipment))
    assert shipment.ops == (("insert", 1, 2),)
    assert shipment.commit_index == 1
    follower.close()
    primary.close()
    store.close()


def test_replication_group_round_robin_and_barrier(tmp_path):
    store = PersistentStore(tmp_path / "p",
                            store=ShardedCuckooGraph(num_shards=2),
                            own_store=True, sync_on_commit=False,
                            compact_wal_bytes=None)
    group = ReplicationGroup(store, replicas=3)
    assert group.replicas == 3

    store.insert_edges([(u, u + 1) for u in range(10)])
    seen = []
    for _ in range(6):
        follower, index = group.next_follower()
        group.refresh(follower)
        assert sorted(follower.store.edges()) == sorted(store.edges())
        seen.append(index)
    assert seen == [0, 1, 2, 0, 1, 2]

    group.close()
    group.close()
    store.close()
