"""Figure 6e (extension): what log-shipping replication costs and buys.

Not a figure from the paper: the paper's stack is a single in-memory
structure, and this benchmark measures the three quantities that decide
whether the replication subsystem (:mod:`repro.replicate`) is deployable
in front of it:

* **Replication lag vs batch size** -- the durable replicated service under
  ``freshness="any"``: reads sample how many shipped records (one per WAL
  segment a group commit touched) the replica trails by when micro-batches
  (one group commit each) grow from 16 to 512 requests;
* **Read throughput vs replica count** -- the same preloaded service serving
  a pipelined read mix (membership + successors) with 0 (primary-only),
  1, 2 and 4 read replicas under the read-your-writes barrier, with the
  round-robin fan-out visible in the per-replica read counts;
* **Ship throughput vs transport** -- the same committed history shipped to
  one replica through the in-process queue channel vs a real TCP socket
  (:class:`~repro.replicate.ReplicationServer` +
  :class:`~repro.replicate.RemoteFollower`): commits and edges per second
  until the replica converges, i.e. what the wire costs over shared memory;
* **PITR replay rate** -- ``recover(upto=...)`` rewinding a copied directory
  to 25% / 50% / 100% of its group commits: commits and edges per second
  of point-in-time recovery.

All store directories live under pytest's ``tmp_path``, so a benchmark run
leaves nothing behind.
"""

from __future__ import annotations

import shutil
import time

from repro.bench import format_table
from repro.core import ShardedCuckooGraph
from repro.persist import LOCK_NAME, PersistentStore, recover
from repro.replicate import Follower, Primary, RemoteFollower, ReplicationServer
from repro.service import GraphService

from .conftest import (bench_stream, benchmark_callable, write_bench_payload,
                       write_report)

NUM_SHARDS = 4

#: Micro-batch sizes for the lag sweep (requests per dispatch window).
LAG_BATCH_SIZES = (16, 128, 512)

#: Replica counts for the read-throughput sweep (0 = primary serves reads).
REPLICA_COUNTS = (0, 1, 2, 4)

#: Transport lanes for the shipping sweep (queue channel vs TCP socket).
TRANSPORT_LANES = ("inprocess", "socket")

#: Edges per group commit in the transport-shipping sweep.
SHIP_COMMIT_OPS = 256

#: Group-commit batch size used to build the PITR history.
PITR_COMMIT_OPS = 64

#: Fractions of the commit history the PITR sweep rewinds to.
PITR_FRACTIONS = (0.25, 0.5, 1.0)


def _durable(tmp_path, name):
    return PersistentStore(
        tmp_path / name,
        store=ShardedCuckooGraph(num_shards=NUM_SHARDS),
        own_store=True,
        sync_on_commit=False,
        compact_wal_bytes=None,
    )


def test_fig06e_replication(benchmark, tmp_path):
    """Replication lag, read fan-out and point-in-time replay rate."""
    edges = list(bench_stream("CAIDA").deduplicated())
    operations = len(edges)

    # ---------------- replication lag vs batch size -------------------- #
    # Buffered commits (durability="none", no per-run fsync): the log runs
    # ahead of what the primary may ship (fsynced records only), so
    # ``freshness="any"`` reads see genuine staleness and the lag gauge
    # measures it in records -- one per segment a group commit touched, the
    # unit ``commit_index`` counts in.  Bigger micro-batch windows coalesce
    # the same traffic into fewer commits, so the *count* a replica trails
    # by shrinks as batches grow.
    lag_rows = []
    for max_batch in LAG_BATCH_SIZES:
        store = _durable(tmp_path, f"lag-{max_batch}")
        with GraphService(store, own_store=True, replicas=1,
                          freshness="any", max_batch=max_batch,
                          queue_capacity=operations + 64) as service:
            futures = []
            for index, (u, v) in enumerate(edges):
                futures.append(service.insert_edge(u, v))
                if index % 200 == 199:
                    # Interleaved stale read: samples the replica's lag.
                    futures.append(service.has_edge(u, v))
            for future in futures:
                future.result(timeout=60)
            commits = store.commits
            summary = service.metrics_summary()
        replication = summary["replication"]
        lag_rows.append({
            "max_batch": max_batch,
            "operations": operations,
            "group_commits": commits,
            "mean_batch": round(summary["mean_batch_size"], 1),
            "lag_samples": replication["lag_samples"],
            "lag_mean": round(replication["lag_mean"], 2),
            "lag_max": replication["lag_max"],
        })
    assert all(row["lag_samples"] > 0 for row in lag_rows)
    assert all(row["lag_max"] > 0 for row in lag_rows)
    # Bigger windows -> fewer group commits for the same traffic, and a
    # correspondingly smaller record-count lag.
    assert lag_rows[0]["group_commits"] > lag_rows[-1]["group_commits"]
    assert lag_rows[0]["lag_max"] > lag_rows[-1]["lag_max"]

    # ---------------- read throughput vs replica count ------------------ #
    read_rows = []
    probe_edges = edges[:1000]
    probe_nodes = list(dict.fromkeys(u for u, _ in probe_edges))[:500]
    for replicas in REPLICA_COUNTS:
        store = _durable(tmp_path, f"reads-{replicas}")
        with GraphService(store, own_store=True, durability="batch",
                          replicas=replicas, freshness="read_your_writes",
                          max_batch=256,
                          queue_capacity=operations + 64) as service:
            futures = [service.insert_edge(u, v) for u, v in edges]
            for future in futures:
                future.result(timeout=60)
            start = time.perf_counter()
            reads = [service.has_edge(u, v) for u, v in probe_edges]
            reads += [service.successors(u) for u in probe_nodes]
            for future in reads:
                future.result(timeout=60)
            seconds = time.perf_counter() - start
            summary = service.metrics_summary()
        replication = summary["replication"]
        fanout = replication["replica_reads"]
        read_rows.append({
            "replicas": replicas,
            "reads": len(reads),
            "kreads": round(len(reads) / seconds / 1e3, 2),
            "replica_reads": "-" if not fanout else
                "/".join(str(fanout.get(i, 0)) for i in range(replicas)),
            "lag_mean": round(replication["lag_mean"], 2),
        })
        # Round-robin: with replicas, every follower served some reads.
        if replicas:
            assert len(fanout) == replicas
    assert read_rows[0]["replica_reads"] == "-"  # primary-only baseline

    # ---------------- ship throughput vs transport ---------------------- #
    # Same commit pacing on both lanes; the only variable is the channel:
    # the in-process queue vs a length-prefixed CRC-framed TCP stream.
    transport_rows = []
    for lane in TRANSPORT_LANES:
        store = _durable(tmp_path, f"ship-{lane}")
        primary = Primary(store)
        server = None
        if lane == "socket":
            server = ReplicationServer(primary)
            follower = RemoteFollower(
                server.address,
                store=ShardedCuckooGraph(num_shards=NUM_SHARDS))
        else:
            follower = Follower(store=ShardedCuckooGraph(num_shards=NUM_SHARDS))
            primary.attach(follower)
        start = time.perf_counter()
        for start_index in range(0, operations, SHIP_COMMIT_OPS):
            store.insert_edges(edges[start_index:start_index + SHIP_COMMIT_OPS])
            primary.sync_and_pump()
        follower.wait_for(primary.commit_index, timeout=120.0)
        seconds = time.perf_counter() - start
        assert follower.store.num_edges == operations
        transport_rows.append({
            "transport": lane,
            "operations": operations,
            "group_commits": store.commits,
            "seconds": round(seconds, 4),
            "commits_per_s": round(store.commits / seconds, 0),
            "kedges_per_s": round(operations / seconds / 1e3, 2),
        })
        follower.close()
        if server is not None:
            server.close()
        primary.close()
        store.close()
    # Both transports converge on the full load; the socket lane pays a
    # real wire cost but must stay in the same order of magnitude.
    assert all(row["operations"] == operations for row in transport_rows)

    # ---------------- PITR replay rate ---------------------------------- #
    source = tmp_path / "pitr-source"
    store = PersistentStore(source, store=ShardedCuckooGraph(num_shards=NUM_SHARDS),
                            own_store=True, sync_on_commit=False,
                            compact_wal_bytes=None)
    commits = 0
    for start_index in range(0, operations, PITR_COMMIT_OPS):
        chunk = edges[start_index:start_index + PITR_COMMIT_OPS]
        store.insert_edges(chunk)
        commits += 1
    store.close()
    # One group commit fans out to one record per touched segment; count
    # the *records* (what ``upto`` indexes) from the log itself.
    from repro.persist import read_wal_records
    total_records = sum(
        len(read_wal_records(segment)[1])
        for segment in sorted(source.glob("wal-*.bin"))
    )

    def rewind_copy(name, upto):
        workdir = tmp_path / name
        shutil.copytree(source, workdir)
        lock = workdir / LOCK_NAME
        if lock.exists():
            lock.unlink()
        started = time.perf_counter()
        recovered = recover(workdir,
                            store=ShardedCuckooGraph(num_shards=NUM_SHARDS),
                            upto=upto)
        seconds = time.perf_counter() - started
        replayed_ops = recovered.last_recovery["wal_ops"]
        edge_count = recovered.num_edges
        recovered.close()
        return seconds, replayed_ops, edge_count

    pitr_rows = []
    for fraction in PITR_FRACTIONS:
        upto = int(total_records * fraction)
        seconds, replayed_ops, edge_count = rewind_copy(f"pitr-{fraction}", upto)
        pitr_rows.append({
            "upto_fraction": fraction,
            "upto_commits": upto,
            "replayed_ops": replayed_ops,
            "edges": edge_count,
            "seconds": round(seconds, 4),
            "commits_per_s": round(upto / seconds, 0) if seconds else 0,
            "edges_per_s": round(replayed_ops / seconds, 0) if seconds else 0,
        })
    # Rewinding to 100% of the records reproduces the full load.
    assert pitr_rows[-1]["edges"] == operations
    # Earlier cuts replay strictly less.
    assert pitr_rows[0]["replayed_ops"] < pitr_rows[-1]["replayed_ops"]

    write_report(
        "fig06e_replication",
        "\n\n".join([
            format_table(
                lag_rows,
                columns=["max_batch", "operations", "group_commits",
                         "mean_batch", "lag_samples", "lag_mean", "lag_max"],
                title='Replication lag vs micro-batch size '
                      '(freshness="any", 1 replica, CAIDA stand-in)'),
            format_table(
                read_rows,
                columns=["replicas", "reads", "kreads", "replica_reads",
                         "lag_mean"],
                title="Read throughput vs replica count "
                      "(read-your-writes barrier, round-robin fan-out)"),
            format_table(
                transport_rows,
                columns=["transport", "operations", "group_commits",
                         "seconds", "commits_per_s", "kedges_per_s"],
                title="Ship throughput vs transport "
                      "(in-process queue vs TCP socket, 1 replica)"),
            format_table(
                pitr_rows,
                columns=["upto_fraction", "upto_commits", "replayed_ops",
                         "edges", "seconds", "commits_per_s", "edges_per_s"],
                title="Point-in-time recovery: recover(upto=...) replay rate"),
        ]),
    )
    write_bench_payload("fig06e", {
        "figure": "fig06e_replication",
        "dataset": "CAIDA",
        "operations": operations,
        "num_shards": NUM_SHARDS,
        "lag_batch_sizes": list(LAG_BATCH_SIZES),
        "replica_counts": list(REPLICA_COUNTS),
        "transport_lanes": list(TRANSPORT_LANES),
        "pitr_fractions": list(PITR_FRACTIONS),
        "lag_rows": lag_rows,
        "read_rows": read_rows,
        "transport_rows": transport_rows,
        "pitr_rows": pitr_rows,
    })

    # Representative operation: PITR to half the history.
    half = int(total_records * 0.5)
    counter = iter(range(1_000_000))

    def pitr_half():
        _, replayed, _ = rewind_copy(f"pitr-bench-{next(counter)}", half)
        return replayed

    assert benchmark_callable(benchmark, pitr_half) >= 0
