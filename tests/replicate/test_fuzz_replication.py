"""Differential fuzz: followers killed and restarted mid-stream must converge.

The replication acceptance invariant, driven by the same ``--fuzz-runs``
seeding convention as ``tests/core/test_fuzz_differential.py``: for any
seeded op stream committed through a WAL-wrapped primary,

* a follower -- including one killed at a random point and re-attached
  with a fresh store -- equals the dict-of-sets oracle at every probed
  commit index;
* ``recover(upto=i)`` on a copy of the directory reproduces exactly the
  first ``i`` group commits (single-segment lane), and
  ``recover(upto=position)`` reproduces every probed follower state
  (sharded lane);
* the final follower promotes into a writable store, and the deposed
  primary's stale segments are refused during recovery of the replica
  directory;
* (incremental-analytics lane) an :class:`AnalyticsFollower` riding the
  same stream -- kills and re-attaches included -- produces kernel outputs
  **byte-identical** to the library kernels recomputed through a fresh
  ``TraversalEngine`` on its replica store at every probed commit index.
"""

import random
import shutil
import sys
import threading
import time

import pytest

from repro import ShardedCuckooGraph
from repro.analytics import (
    AnalyticsFollower,
    TraversalEngine,
    pagerank,
    top_degree_nodes,
    total_degrees,
    weakly_connected_components,
)
from repro.persist import LOCK_NAME, PersistentStore, read_wal_records, recover
from repro.replicate import (
    Follower,
    InProcessTransport,
    Primary,
    RecordShipment,
    RemoteFollower,
    ReplicationGroup,
    ReplicationServer,
)

from ..core.test_fuzz_differential import (
    NODE_RANGE,
    Oracle,
    assert_final_state,
    generate_ops,
)


def copy_dir(source, destination):
    shutil.copytree(source, destination)
    lock = destination / LOCK_NAME
    if lock.exists():
        lock.unlink()
    return destination


@pytest.mark.parametrize("transport_lane", ["inprocess", "socket"])
@pytest.mark.parametrize("num_shards", [1, 3])
def test_fuzz_follower_kill_restart_converges(num_shards, transport_lane,
                                              fuzz_seed, tmp_path):
    rng = random.Random(fuzz_seed * 23 + num_shards)
    ops = generate_ops(fuzz_seed)
    oracle = Oracle()
    context = f"seed={fuzz_seed} shards={num_shards} {transport_lane} replicate"
    base = tmp_path / "primary"

    store = PersistentStore(base, store=ShardedCuckooGraph(num_shards=num_shards),
                            own_store=True, sync_on_commit=False,
                            compact_wal_bytes=None)
    primary = Primary(store)
    # The socket lane runs the *same* schedule through TCP: every replica is
    # a RemoteFollower bootstrapped over the wire (snapshot stream +
    # backfill frames), and every shipment crosses a real socket.  The
    # assertions are byte-identical to the in-process lane's.
    server = ReplicationServer(primary) if transport_lane == "socket" else None
    node_ids = iter(range(1, 10_000))

    def spawn_replica():
        if server is not None:
            return RemoteFollower(
                server.address,
                store=ShardedCuckooGraph(num_shards=num_shards),
                node_id=next(node_ids))
        replica = Follower(store=ShardedCuckooGraph(num_shards=num_shards))
        primary.attach(replica)
        return replica

    follower = spawn_replica()

    kills = 0
    index_probes = []     # (commit_index, oracle edges) -- int PITR lane
    position_probes = []  # (WalPosition, oracle edges)  -- sharded PITR lane
    position = 0
    while position < len(ops):
        chunk = ops[position:position + rng.randrange(20, 90)]
        position += len(chunk)
        inserts = [(u, v) for a, u, v in chunk if a == "insert"]
        deletes = [(u, v) for a, u, v in chunk if a == "delete"]
        assert store.insert_edges(inserts) == \
            sum(oracle.insert(u, v) for u, v in inserts), context
        assert store.delete_edges(deletes) == \
            sum(oracle.delete(u, v) for u, v in deletes), context
        primary.sync_and_pump()

        if rng.random() < 0.30:
            # Kill: the replica vanishes with shipped-but-unapplied messages
            # still queued.  A fresh store re-attaches and must converge via
            # backfill alone.
            follower.close()
            kills += 1
            follower = spawn_replica()
        else:
            follower.wait_for(primary.commit_index)

        assert follower.commit_index == primary.commit_index, context
        assert_final_state(follower.store, oracle,
                           f"{context} probe@{follower.commit_index}")
        index_probes.append((primary.commit_index, oracle.edges()))
        position_probes.append((follower.position, oracle.edges()))

    final_edges = oracle.edges()

    # ---- promotion + fencing ----------------------------------------- #
    follower.wait_for(primary.commit_index)
    promoted = follower.promote(tmp_path / "replica")
    assert sorted(promoted.edges()) == final_edges, context
    assert promoted.insert_edge(NODE_RANGE + 5, NODE_RANGE + 6), context
    promoted.checkpoint()
    promoted_state = sorted(promoted.edges())
    promoted.close()
    follower.close()
    if server is not None:
        server.close()
    primary.close()

    # The deposed primary keeps writing, then its segments are smuggled
    # into the replica directory; recovery must refuse them all.
    store.insert_edges([(u, NODE_RANGE + 50) for u in range(4)])
    store.sync()
    store.close()
    for segment in sorted(base.glob("wal-*.bin")):
        generation, records, _ = read_wal_records(segment)
        if not records:
            continue  # an empty stale segment proves nothing
        shutil.copy(segment, tmp_path / "replica" / segment.name)
    fenced = recover(tmp_path / "replica",
                     store=ShardedCuckooGraph(num_shards=num_shards))
    assert sorted(fenced.edges()) == promoted_state, f"{context} fencing"
    assert fenced.last_recovery["wal_ops"] == 0, f"{context} fencing"
    fenced.close()

    # ---- point-in-time recovery probes -------------------------------- #
    sample = rng.sample(range(len(index_probes)), k=min(3, len(index_probes)))
    for probe in sample:
        if num_shards == 1:
            commit_index, expected = index_probes[probe]
            workdir = copy_dir(base, tmp_path / f"pitr-i{probe}")
            rewound = recover(workdir, store=ShardedCuckooGraph(num_shards=1),
                              upto=commit_index)
            assert sorted(rewound.edges()) == expected, \
                f"{context} upto={commit_index}"
            rewound.close()
        wal_position, expected = position_probes[probe]
        workdir = copy_dir(base, tmp_path / f"pitr-p{probe}")
        rewound = recover(workdir,
                          store=ShardedCuckooGraph(num_shards=num_shards),
                          upto=wal_position)
        assert sorted(rewound.edges()) == expected, \
            f"{context} upto={wal_position}"
        rewound.close()


@pytest.mark.parametrize("sync_on_commit", [False, True],
                         ids=["group-commit", "sync-on-commit"])
def test_stress_commits_against_a_second_threads_sync_and_pump(
        sync_on_commit, fuzz_seed, tmp_path):
    """The owner commits, syncs and advances; a second thread hammers
    ``Primary.sync_and_pump()`` the way ``ReplicationServer._serve`` calls it
    from a bootstrap.  However the two interleave -- the other thread's
    ``sync()`` taking a record's fsync while its apply still runs, a pump
    between an append and its feed entry, a checkpoint's drain -- every
    record ships exactly once, with gap-free commit indices, each segment's
    records in offset order, and the follower ends equal to the store."""
    shards, commits = 8, 300
    rng = random.Random(fuzz_seed)
    sent = []

    class Recording(InProcessTransport):
        def connect(self):
            channel = super().connect()
            ship = channel.send
            channel.send = lambda message: (sent.append(message), ship(message))[1]
            return channel

    inner = ShardedCuckooGraph(num_shards=shards)
    store = PersistentStore(tmp_path / "p", store=inner, own_store=True,
                            sync_on_commit=sync_on_commit, compact_wal_bytes=1 << 13)
    group = ReplicationGroup(store, replicas=1, transport=Recording())
    follower = group.followers[0]
    expected_records = 0
    stop = threading.Event()
    failures = []
    calls = [0]

    def hammer():
        try:
            while not stop.is_set():
                group.primary.sync_and_pump()
                calls[0] += 1
        except BaseException as error:  # reported by the main thread
            failures.append(error)

    pumper = threading.Thread(target=hammer, name="stress-pumper")
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    deadline = time.monotonic() + 120
    try:
        pumper.start()
        for _ in range(commits):
            assert time.monotonic() < deadline, "stress run overran its time bound"
            batch = [(rng.randrange(1, 400), rng.randrange(1, 50))
                     for _ in range(rng.randrange(2, 24))]
            expected_records += len(inner.partition_edges(batch))
            if rng.random() < 0.3:
                store.delete_edges(batch)
            else:
                store.insert_edges(batch)
            store.sync()
            group.advance()
            follower.poll()  # advance() polls only when this thread shipped
    finally:
        stop.set()
        pumper.join(timeout=60)
        sys.setswitchinterval(interval)
    try:
        assert not pumper.is_alive()
        assert failures == [] and calls[0] > 0
        assert store.compactions > 0
        assert group.primary.sync_and_pump() == 0  # the owner left nothing behind
        assert store.feed_backlog == 0

        records = [m for m in sent if isinstance(m, RecordShipment)]
        assert len(records) == expected_records == group.primary.commit_index
        assert [m.commit_index for m in records] == list(range(1, len(records) + 1))
        cuts = [(m.segment, m.generation, m.end_offset) for m in records]
        assert len(set(cuts)) == len(cuts)
        for segment in range(shards):
            own = [cut[1:] for cut in cuts if cut[0] == segment]
            assert own == sorted(own), f"segment {segment} shipped out of order"
        follower.wait_for(group.primary.commit_index)
        assert sorted(follower.store.edges()) == sorted(store.edges())
        assert follower.position == group.primary.position
    finally:
        group.close()
        store.close()


ANALYTICS_ITERATIONS = 15  # enough sweeps for dirt to travel, fast to recompute


def test_fuzz_incremental_analytics_byte_parity(fuzz_seed, tmp_path):
    """Incremental kernels == library recompute at every probed commit index.

    The delta-maintained :class:`AnalyticsFollower` consumes the same seeded
    op stream as the convergence lane -- including random kills with
    re-attach, which exercise the full-invalidation path (backfill bypasses
    the change-feed hook).  At every chunk boundary, all four kernels must
    be byte-identical (exact ints, bit-exact floats, no tolerance) to fresh
    ``TraversalEngine`` recomputes on the follower's own replica store, and
    the replica itself must equal the oracle.
    """
    rng = random.Random(fuzz_seed * 31 + 7)
    ops = generate_ops(fuzz_seed)
    oracle = Oracle()
    context = f"seed={fuzz_seed} incremental-analytics"

    def fresh_analytics_replica():
        return AnalyticsFollower(
            store=ShardedCuckooGraph(num_shards=2),
            iterations=ANALYTICS_ITERATIONS,
        )

    store = PersistentStore(tmp_path / "primary",
                            store=ShardedCuckooGraph(num_shards=2),
                            own_store=True, sync_on_commit=False,
                            compact_wal_bytes=None)
    primary = Primary(store)
    follower = fresh_analytics_replica()
    primary.attach(follower)
    # Cache refreshes summed over every follower the run creates, each read
    # before its close(): a kill in the last chunk leaves a final follower
    # that only primed, which must not hide the refreshes of the others.
    refreshes = 0

    try:
        position = 0
        while position < len(ops):
            chunk = ops[position:position + rng.randrange(20, 90)]
            position += len(chunk)
            inserts = [(u, v) for a, u, v in chunk if a == "insert"]
            deletes = [(u, v) for a, u, v in chunk if a == "delete"]
            store.insert_edges(inserts)
            store.delete_edges(deletes)
            for u, v in inserts:
                oracle.insert(u, v)
            for u, v in deletes:
                oracle.delete(u, v)
            primary.sync_and_pump()

            if rng.random() < 0.30:
                # Kill: cached adjacency and kernel state die with the
                # follower; the re-attached replica is backfilled directly
                # (no per-op dirty marks) and must still be exact.
                refreshes += follower.analytics_stats()["cache"]["refreshes"]
                follower.close()
                follower = fresh_analytics_replica()
                primary.attach(follower)
            follower.wait_for(primary.commit_index)

            probe = f"{context} probe@{follower.commit_index}"
            assert_final_state(follower.store, oracle, probe)
            replica = follower.store
            assert follower.pagerank() == pagerank(
                replica, iterations=ANALYTICS_ITERATIONS,
                engine=TraversalEngine(replica)), f"{probe} pagerank"
            assert follower.components() == weakly_connected_components(
                replica, engine=TraversalEngine(replica)), f"{probe} wcc"
            assert follower.total_degrees() == dict(total_degrees(
                replica, engine=TraversalEngine(replica))), f"{probe} degrees"
            assert follower.top_degree_nodes(8) == top_degree_nodes(
                replica, 8, engine=TraversalEngine(replica)), f"{probe} top-k"

        stats = follower.analytics_stats()
        assert stats["decisions"]["primed"] >= 1, context
        refreshes += stats["cache"]["refreshes"]
        assert refreshes >= 1, context
    finally:
        follower.close()
        primary.close()
        store.close()
