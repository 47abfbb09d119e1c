"""Durability quickstart: write -> crash -> recover.

Walks the full lifecycle of the durability subsystem (``repro.persist``):

1. build a WAL-backed sharded store and commit traffic through it,
2. compact (snapshot + truncate) part of the history,
3. simulate a crash by tearing bytes off the tail of a WAL segment,
4. recover: snapshot + every complete group commit, torn tail dropped,
5. serve the recovered store through a group-committing GraphService.

Run with ``PYTHONPATH=src python examples/persistence_quickstart.py``.
"""

import tempfile
from pathlib import Path

from repro import GraphService, ShardedCuckooGraph
from repro.persist import PersistentStore, recover

NUM_SHARDS = 4


def demo(workspace: Path) -> None:
    base = workspace / "graph"

    # -- 1. write-ahead-logged traffic ---------------------------------- #
    store = PersistentStore(
        base,
        store=ShardedCuckooGraph(num_shards=NUM_SHARDS),
        own_store=True,
        sync_on_commit=True,     # every commit fsynced on its own
        compact_wal_bytes=None,  # keep the whole history for the demo
    )
    store.insert_edges([(u, u + 1) for u in range(50)])       # one group commit
    store.insert_edges([(u, u + 2) for u in range(0, 50, 2)])  # another
    store.delete_edges([(0, 1), (2, 3)])
    print("live store:", store.num_edges, "edges;",
          store.persistence_summary()["wal_records"], "WAL records in",
          store.persistence_summary()["segments"], "segments")

    # -- 2. compaction: fold the log into a snapshot --------------------- #
    rows = store.checkpoint()
    store.insert_edge(1000, 1001)  # one commit after the snapshot
    print(f"checkpoint wrote {rows} rows; WAL is now "
          f"{store.wal_bytes()} bytes across segments")
    expected = sorted(store.edges())
    store.close()

    # -- 3. crash: tear the tail of one WAL segment ---------------------- #
    segment = max(base.glob("wal-*.bin"), key=lambda p: p.stat().st_size)
    data = segment.read_bytes()
    segment.write_bytes(data[:-7])  # mid-record: this commit never completed
    print(f"simulated crash: tore 7 bytes off {segment.name}")

    # -- 4. recover ------------------------------------------------------ #
    recovered = recover(base, store=ShardedCuckooGraph(num_shards=NUM_SHARDS))
    stats = recovered.last_recovery
    print("recovered:", recovered.num_edges, "edges "
          f"(snapshot_rows={stats['snapshot_rows']}, wal_ops={stats['wal_ops']})")
    # The torn record held the post-snapshot insert; everything else is back.
    survivors = [edge for edge in expected if edge != (1000, 1001)]
    assert sorted(recovered.edges()) == survivors

    # -- 5. serve it durably --------------------------------------------- #
    # Group commit: each dispatched micro-batch is one store commit -- one
    # fsync per touched segment, beside the apply -- and durable *before*
    # the batch's futures resolve.
    with GraphService(recovered, own_store=True, durability="batch",
                      max_batch=256) as service:
        futures = [service.insert_edge(u, 9999) for u in range(200)]
        inserted = sum(future.result() for future in futures)
        summary = service.metrics_summary()
    print(f"served {inserted} durable inserts in "
          f"{summary['group_commits']} group commits "
          f"(mean batch {summary['mean_batch_size']:.1f})")


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="repro-persist-demo-") as tmp:
        demo(Path(tmp))


if __name__ == "__main__":
    main()
