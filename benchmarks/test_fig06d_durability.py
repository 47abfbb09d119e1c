"""Figure 6d (extension): what durability costs, and what batching buys back.

Not a figure from the paper: the paper's stack is purely in-memory, and this
benchmark measures the three quantities that decide whether the durability
subsystem (:mod:`repro.persist`) is deployable in front of it:

* **Logging overhead** -- insert throughput of the WAL-wrapped sharded store
  against the bare in-memory one, with buffered appends (``wal-buffered``)
  and with an fsync per commit (``wal-fsync``);
* **Group-commit batching gains** -- the same fsync-per-commit store driven
  at growing batch sizes (each batch call is exactly one WAL record and one
  fsync), plus the full service path (``durability="batch"``: one fsync per
  dispatched micro-batch, before futures resolve);
* **Recovery throughput** -- edges/second of ``recover()`` replaying the WAL
  and from a snapshot after compaction.

All store directories live under pytest's ``tmp_path``, so a benchmark run
leaves nothing behind.
"""

from __future__ import annotations

import time

from repro.bench import format_table
from repro.core import ShardedCuckooGraph
from repro.persist import PersistentStore, recover
from repro.service import GraphService

from .conftest import (bench_stream, benchmark_callable, write_bench_payload,
                       write_report)

NUM_SHARDS = 4

#: Batch sizes for the group-commit sweep (ops per fsync).
COMMIT_BATCH_SIZES = (1, 16, 128, 1024)

#: Chunk size used when measuring pure logging overhead (large enough that
#: per-call dispatch is negligible for every store).
LOAD_CHUNK = 256


def _chunks(edges, size):
    for start in range(0, len(edges), size):
        yield edges[start:start + size]


def _timed_insert(store, edges, chunk_size) -> float:
    start = time.perf_counter()
    for chunk in _chunks(edges, chunk_size):
        store.insert_edges(chunk)
    return time.perf_counter() - start


def test_fig06d_durability(benchmark, tmp_path):
    """Logging overhead, group-commit gains and recovery edges/sec."""
    edges = list(bench_stream("CAIDA").deduplicated())
    operations = len(edges)

    # ---------------- logging overhead ------------------------------- #
    overhead_rows = []
    baseline_seconds = None
    variants = [
        ("in-memory", lambda: ShardedCuckooGraph(num_shards=NUM_SHARDS)),
        ("wal-buffered", lambda: PersistentStore(
            tmp_path / "overhead-buffered",
            store=ShardedCuckooGraph(num_shards=NUM_SHARDS),
            sync_on_commit=False, compact_wal_bytes=None, own_store=True)),
        ("wal-fsync", lambda: PersistentStore(
            tmp_path / "overhead-fsync",
            store=ShardedCuckooGraph(num_shards=NUM_SHARDS),
            sync_on_commit=True, compact_wal_bytes=None, own_store=True)),
    ]
    for label, factory in variants:
        store = factory()
        seconds = _timed_insert(store, edges, LOAD_CHUNK)
        assert store.num_edges == operations
        if baseline_seconds is None:
            baseline_seconds = seconds
        summary = store.persistence_summary() if isinstance(store, PersistentStore) else {}
        overhead_rows.append({
            "variant": label,
            "operations": operations,
            "kops": round(operations / seconds / 1e3, 2),
            "overhead_x": round(seconds / baseline_seconds, 3),
            "wal_records": summary.get("wal_records", 0),
            "fsyncs": summary.get("wal_syncs", 0),
            "wal_kib": round(summary.get("wal_bytes", 0) / 1024, 1),
        })
        store.close()
    # The WAL variants must have logged exactly one record per batch call
    # (that is what makes a group commit one fsync), spread over the shards'
    # segments.
    batch_calls = len(list(_chunks(edges, LOAD_CHUNK)))
    for row in overhead_rows[1:]:
        assert row["wal_records"] >= batch_calls
    # Per-commit fsyncs must actually have happened in the fsync variant
    # and not in the buffered one (close adds one final fsync per segment).
    assert overhead_rows[2]["fsyncs"] >= batch_calls
    assert overhead_rows[1]["fsyncs"] == 0

    # ---------------- group-commit batch-size sweep ------------------- #
    commit_rows = []
    for batch_size in COMMIT_BATCH_SIZES:
        store = PersistentStore(
            tmp_path / f"commit-{batch_size}",
            store=ShardedCuckooGraph(num_shards=NUM_SHARDS),
            sync_on_commit=True, compact_wal_bytes=None, own_store=True)
        seconds = _timed_insert(store, edges, batch_size)
        assert store.num_edges == operations
        fsyncs = store.persistence_summary()["wal_syncs"]
        commit_rows.append({
            "path": "store",
            "ops_per_commit": batch_size,
            "operations": operations,
            "kops": round(operations / seconds / 1e3, 2),
            "fsyncs": fsyncs,
        })
        store.close()
    # One group commit is one batch call; fsyncs shrink as batches grow.
    assert all(earlier["fsyncs"] > later["fsyncs"]
               for earlier, later in zip(commit_rows, commit_rows[1:]))

    # The service path: pipelined submissions, one fsync per dispatched
    # micro-batch, futures resolve only after their commit is durable.
    store = PersistentStore(
        tmp_path / "commit-service",
        store=ShardedCuckooGraph(num_shards=NUM_SHARDS),
        sync_on_commit=False, compact_wal_bytes=None, own_store=True)
    with GraphService(store, max_batch=512, queue_capacity=len(edges),
                      own_store=True, durability="batch") as service:
        start = time.perf_counter()
        futures = [service.insert_edge(u, v) for u, v in edges]
        resolved = sum(future.result() for future in futures)
        seconds = time.perf_counter() - start
        summary = service.metrics_summary()
    assert resolved == operations
    assert summary["group_commits"] >= 1
    commit_rows.append({
        "path": "service",
        "ops_per_commit": round(operations / summary["group_commits"], 1),
        "operations": operations,
        "kops": round(operations / seconds / 1e3, 2),
        "fsyncs": summary["group_commits"],
    })

    # ---------------- recovery throughput ----------------------------- #
    recovery_rows = []

    def build_dir(name, checkpoint):
        store = PersistentStore(
            tmp_path / name, store=ShardedCuckooGraph(num_shards=NUM_SHARDS),
            sync_on_commit=False, compact_wal_bytes=None, own_store=True)
        for chunk in _chunks(edges, LOAD_CHUNK):
            store.insert_edges(chunk)
        if checkpoint:
            store.checkpoint()
        store.close()
        return tmp_path / name

    for label, checkpoint in (("wal", False), ("snapshot", True)):
        directory = build_dir(f"recover-{label}", checkpoint)
        start = time.perf_counter()
        recovered = recover(directory, store=ShardedCuckooGraph(num_shards=NUM_SHARDS))
        seconds = time.perf_counter() - start
        assert recovered.num_edges == operations
        assert sorted(recovered.edges()) == sorted(edges)
        stats = recovered.last_recovery
        recovery_rows.append({
            "source": label,
            "snapshot_rows": stats["snapshot_rows"],
            "wal_ops": stats["wal_ops"],
            "edges": operations,
            "seconds": round(seconds, 4),
            "edges_per_s": round(operations / seconds, 0),
        })
        recovered.close()
    # After compaction the WAL is empty: recovery must come from the snapshot.
    assert recovery_rows[-1]["wal_ops"] == 0
    assert recovery_rows[-1]["snapshot_rows"] == operations

    write_report(
        "fig06d_durability",
        "\n\n".join([
            format_table(
                overhead_rows,
                columns=["variant", "operations", "kops", "overhead_x",
                         "wal_records", "fsyncs", "wal_kib"],
                title="Durability logging overhead: WAL-wrapped sharded store "
                      "vs in-memory (CAIDA stand-in)"),
            format_table(
                commit_rows,
                columns=["path", "ops_per_commit", "operations", "kops", "fsyncs"],
                title="Group commit: throughput vs operations per fsync "
                      "(store batches and the durability=\"batch\" service)"),
            format_table(
                recovery_rows,
                columns=["source", "snapshot_rows", "wal_ops", "edges",
                         "seconds", "edges_per_s"],
                title="Recovery throughput: WAL replay and snapshot load"),
        ]),
    )
    write_bench_payload("fig06d", {
        "figure": "fig06d_durability",
        "dataset": "CAIDA",
        "operations": operations,
        "num_shards": NUM_SHARDS,
        "commit_batch_sizes": list(COMMIT_BATCH_SIZES),
        "overhead_rows": overhead_rows,
        "commit_rows": commit_rows,
        "recovery_rows": recovery_rows,
    })

    # Recovery is idempotent, so the directory is built once and only the
    # recover() + close() pair is timed.
    bench_dir = build_dir("recover-bench", False)

    def recover_wal():
        recovered = recover(bench_dir, store=ShardedCuckooGraph(num_shards=NUM_SHARDS))
        count = recovered.num_edges
        recovered.close()
        return count

    assert benchmark_callable(benchmark, recover_wal) == operations
