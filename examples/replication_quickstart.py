"""Replication quickstart: primary, two followers, barriers, PITR, failover.

Walks the full lifecycle of the replication subsystem (``repro.replicate``):

1. build a WAL-backed primary and attach two read replicas,
2. commit traffic and read it back through a read-your-writes barrier,
3. point-in-time recover a *copy* of the directory to an earlier commit,
4. promote a follower: the old primary's segments are fenced out,
5. serve the whole thing through a replicated ``GraphService``.

Run with ``PYTHONPATH=src python examples/replication_quickstart.py``.
"""

import shutil
import tempfile
from pathlib import Path

from repro import GraphService, ShardedCuckooGraph
from repro.persist import LOCK_NAME, PersistentStore, recover
from repro.replicate import Follower, Primary

NUM_SHARDS = 4


def copy_directory(source: Path, destination: Path) -> Path:
    shutil.copytree(source, destination)
    lock = destination / LOCK_NAME
    if lock.exists():
        lock.unlink()  # the copy is its own store; drop the source's lock
    return destination


def demo(workspace: Path) -> None:
    base = workspace / "primary"

    # -- 1. a primary and two followers ---------------------------------- #
    store = PersistentStore(
        base,
        store=ShardedCuckooGraph(num_shards=NUM_SHARDS),
        own_store=True,
        sync_on_commit=False,     # group commits are flushed when shipped
        compact_wal_bytes=None,   # keep the whole history for the PITR demo
    )
    primary = Primary(store)
    replica_a = Follower(store=ShardedCuckooGraph(num_shards=NUM_SHARDS))
    replica_b = Follower(store=ShardedCuckooGraph(num_shards=NUM_SHARDS))
    primary.attach(replica_a)
    primary.attach(replica_b)

    # -- 2. commit, ship, read your writes ------------------------------- #
    store.insert_edges([(u, u + 1) for u in range(60)])    # one group commit
    store.delete_edges([(0, 1), (2, 3)])                   # another
    primary.sync_and_pump()
    replica_a.wait_for(primary.commit_index)
    early_position = replica_a.position  # before the next burst, for PITR
    early_index = replica_a.commit_index

    store.insert_edges([(u, u + 2) for u in range(0, 60, 2)])
    primary.sync_and_pump()
    replica_a.wait_for(primary.commit_index)   # read-your-writes barrier
    replica_b.wait_for(primary.commit_index)
    print(f"primary shipped {primary.commit_index} commits; "
          f"replica A has {replica_a.store.num_edges} edges "
          f"(lag {replica_a.lag()}), replica B {replica_b.store.num_edges}")
    assert sorted(replica_a.store.edges()) == sorted(store.edges())

    # -- 3. point-in-time recovery to the earlier commit ------------------ #
    # The rewind is destructive, so PITR operates on a copy.
    pitr_dir = copy_directory(base, workspace / "pitr")
    rewound = recover(pitr_dir, store=ShardedCuckooGraph(num_shards=NUM_SHARDS),
                      upto=early_position)
    print(f"PITR to commit {early_index}: {rewound.num_edges} edges "
          f"(live store has {store.num_edges})")
    assert rewound.num_edges < store.num_edges
    rewound.close()

    # -- 4. failover: promote replica B, fence the old primary ------------ #
    promoted = replica_b.promote(workspace / "new-primary")
    promoted.insert_edge(10_000, 10_001)       # the new timeline is writable
    promoted.checkpoint()
    print(f"promoted replica B at generation {promoted.generation}; "
          f"{promoted.num_edges} edges")
    promoted.close()
    # The deposed primary's stale segments carry an older generation, so
    # recovery of the new primary's directory provably rejects them.
    store.insert_edge(666, 667)                # split-brain write, doomed
    store.sync()
    replica_a.close()
    primary.close()
    store.close()
    for segment in sorted(base.glob("wal-*.bin")):
        shutil.copy(segment, workspace / "new-primary" / segment.name)
    fenced = recover(workspace / "new-primary",
                     store=ShardedCuckooGraph(num_shards=NUM_SHARDS))
    assert not fenced.has_edge(666, 667), "stale primary write must be fenced"
    assert fenced.has_edge(10_000, 10_001)
    print(f"fencing: recovery skipped the deposed primary's segments "
          f"(replayed {fenced.last_recovery['wal_ops']} stale ops)")
    fenced.close()

    # -- 5. the replicated service front door ----------------------------- #
    service_store = PersistentStore(
        workspace / "served",
        store=ShardedCuckooGraph(num_shards=NUM_SHARDS),
        own_store=True, sync_on_commit=False, compact_wal_bytes=None,
    )
    with GraphService(service_store, own_store=True, durability="batch",
                      replicas=2, max_batch=256) as service:
        futures = [service.insert_edge(u, 9_999) for u in range(300)]
        inserted = sum(future.result() for future in futures)
        assert service.has_edge(5, 9_999).result() is True
        order = service.analytics("bfs", 5).result()
        summary = service.metrics_summary()
    replication = summary["replication"]
    print(f"served {inserted} durable inserts; reads fanned out over "
          f"{len(replication['replica_reads'])} replicas "
          f"(counts {replication['replica_reads']}, "
          f"max lag {replication['lag_max']} commits); BFS from 5 -> {order}")


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="repro-replicate-demo-") as tmp:
        demo(Path(tmp))


if __name__ == "__main__":
    main()
