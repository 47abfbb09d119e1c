"""``serve_closed``: the north-star path under two blocking clients.

client -> bounded queue -> micro-batch -> WAL group commit -> 4 shards ->
1 read replica (read-your-writes).  The deployment is composed exactly as
``GraphClient.durable(path, num_shards=4, replicas=1)`` composes it; it is
spelled out here only because that helper offers no seam to hand the traced
shards, sharded store and persistent store through.

Each client owns the sources whose id is congruent to its index, so what a
request must return depends on that client's own earlier requests only and
is known exactly before the run, whatever the interleaving.
"""

from __future__ import annotations

import random
import shutil
import statistics
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Sequence, Tuple

from repro import GraphClient, GraphService, PersistentStore, ShardedCuckooGraph
from repro.datasets.generators import powerlaw_edge_set
from repro.persist import open_or_create
from repro.replicate import ReplicationGroup
from repro.service.batcher import Request, gather_window, split_runs
from repro.service.queue import BoundedRequestQueue

from .common import Context, directory_bytes, fresh_dir, miss_for, random_ids
from .hostspeed import HostSpeed
from .layers import core_structure, imbalance
from .oracle import Edge, Oracle
from .stream import (
    BFS_ROOTS,
    PAGERANK_SWEEPS,
    WalMeter,
    check_pagerank,
    misses_for,
    record_persistence,
    record_recovery,
    sharded_store,
    spanned_persist,
)
from .tracing import clock, maybe_span

CLIENTS = 2
#: Edges (or nodes) per pipelined client call in the bulk phases.
CALL = 256
#: Sizes per round at ``--seconds 15``.
EDGES = 9_000
CLIENT_OPS = 2_200           # blocking requests per client in the mixed phase
BLOCK = 100                  # ... timed this many at a time
SUCCESSOR_PASSES = 16
MIX = (("insert", 0.40), ("delete", 0.10), ("has", 0.35), ("successors", 0.15))
GROUP_COMMIT = ("group commit (sync_on_commit=False, durability=\"batch\"): one fsync per "
                "WAL segment a dispatched mutation run touched, before its futures resolve")

Op = Tuple[str, int, int]


@dataclass
class ClosedInputs:
    graph: List[Edge]
    scripts: List[List[Op]]            # one request script per client
    expected: List[list]               # ... and what each request must return
    after_load: Oracle
    after_mixed: Oracle
    live: List[Edge]


def pick_kind(rng: random.Random, mix=MIX) -> str:
    draw = rng.random()
    for kind, share in mix:
        draw -= share
        if draw < 0:
            return kind
    return mix[-1][0]


def closed_inputs(seed: int, edges: int, client_ops: int) -> ClosedInputs:
    rng = random.Random(seed)
    num_nodes = max(64, edges // 8)
    drawn = powerlaw_edge_set(num_nodes, edges + CLIENTS * client_ops, rng)
    ids = random_ids(rng, num_nodes)
    drawn = [(ids[u], ids[v]) for u, v in drawn]
    graph, unseen = drawn[:edges], drawn[edges:]
    after_load = Oracle(graph)
    model = after_load.copy()
    scripts: List[List[Op]] = []
    expected: List[list] = []
    live: List[Edge] = []
    for client in range(CLIENTS):
        present = [edge for edge in graph if edge[0] % CLIENTS == client]
        fresh = [edge for edge in unseen if edge[0] % CLIENTS == client]
        script: List[Op] = []
        answers: list = []
        probes = 0
        for _ in range(client_ops):
            kind = pick_kind(rng)
            if kind == "insert" and fresh:
                u, v = fresh.pop()
                answers.append(model.insert(u, v))
                present.append((u, v))
            elif kind == "delete" and len(present) > 1:
                at = rng.randrange(len(present))
                present[at], present[-1] = present[-1], present[at]
                u, v = present.pop()
                answers.append(model.delete(u, v))
            elif kind == "successors":
                u, v = present[rng.randrange(len(present))]
                answers.append(model.successors(u))
            else:
                kind = "has"
                u, v = present[rng.randrange(len(present))]
                if probes % 2:
                    u, v = miss_for((u, v), probes // 2)
                probes += 1
                answers.append(model.has(u, v))
            script.append((kind, u, v))
        scripts.append(script)
        expected.append(answers)
        live.extend(present)
    return ClosedInputs(graph, scripts, expected, after_load, model, live)


# --------------------------------------------------------------------- #
# Deployment
# --------------------------------------------------------------------- #

def durable_client(ctx: Context, path: Path, replicas: int) -> GraphClient:
    """What ``GraphClient.durable(path, num_shards=4, replicas=...)`` builds;
    an existing directory is recovered."""
    store = open_or_create(path, store=sharded_store(ctx.tracer), sync_on_commit=False,
                           own_store=True)
    spanned_persist(ctx.tracer, store)
    service = GraphService(store, own_store=True, durability="batch", replicas=replicas)
    return GraphClient(service.start(), close_service=True)


# --------------------------------------------------------------------- #
# Phases through the client
# --------------------------------------------------------------------- #

def pipelined(call, items: Sequence, collect,
              piece: Callable[[float], float] = lambda seconds: 1.0) -> None:
    """``call`` on :data:`CALL` items at a time (the client pipelines each
    call); ``piece`` takes the seconds of each call."""
    for start in range(0, len(items), CALL):
        began = clock()
        result = call(items[start:start + CALL])
        piece(clock() - began)
        collect(result)


def bulk_insert(ctx: Context, client: GraphClient, edges: Sequence[Edge]) -> None:
    counts: List[int] = []
    accesses = client.accesses
    with ctx.phase("insert", len(edges)):
        pipelined(client.insert_edges, edges, counts.append, ctx.piece)
    ctx.rate_kops("insert_kops", "insert", len(edges))
    ctx.ledger.count("insert", sum(counts), len(edges), len(edges))
    # The service probes before it mutates: its has_edges pass is in here too.
    ctx.per_layer["core.accesses_per_insert"] = (client.accesses - accesses) / len(edges)
    ctx.end_to_end.setdefault("mem_bytes_per_edge", client.memory_bytes() / client.num_edges)


def bulk_has(ctx: Context, client: GraphClient, present: Sequence[Edge]) -> None:
    probes = list(present) + misses_for(present)
    answers: List[bool] = []
    accesses = client.accesses
    with ctx.phase("has", len(probes)):
        pipelined(client.has_edges, probes, answers.extend, ctx.piece)
    ctx.rate_kops("has_kops", "has", len(probes))
    # Zero when a replica serves the reads: the primary's counter stands still.
    ctx.per_layer["core.accesses_per_has"] = (client.accesses - accesses) / len(probes)
    ctx.ledger.values("has", answers, [True] * len(present) + [False] * len(present))


def bulk_successors(ctx: Context, client: GraphClient, oracle: Oracle, passes: int) -> None:
    sources = sorted(oracle.adj)
    with ctx.phase("successors", passes * len(sources)):
        for _ in range(passes):
            lists: Dict[int, List[int]] = {}
            pipelined(client.successors_many, sources, lists.update, ctx.piece)
    ctx.rate_kops("successors_kops", "successors", passes * len(sources))
    ctx.ledger.successor_lists("successors", lists, oracle, sources)


def bulk_delete(ctx: Context, client: GraphClient, live: Sequence[Edge]) -> None:
    counts: List[int] = []
    accesses = client.accesses
    with ctx.phase("delete", len(live)):
        pipelined(client.delete_edges, live, counts.append, ctx.piece)
    ctx.rate_kops("delete_kops", "delete", len(live))
    ctx.per_layer["core.accesses_per_delete"] = (client.accesses - accesses) / len(live)
    ctx.ledger.count("delete", sum(counts), len(live), len(live))
    ctx.ledger.count("edges left after delete", client.num_edges, 0, 1)


def client_analytics(ctx: Context, client: GraphClient, oracle: Oracle,
                     repeats: int = 4) -> None:
    """BFS x3 + PageRank x5 as service analytics jobs, ``repeats`` times over
    (the served graphs are small: once takes a twentieth of a second)."""
    roots = oracle.top_sources(BFS_ROOTS)
    bfs_s = pagerank_s = 0.0
    with ctx.phase("analytics"):
        for _ in range(repeats):
            began = clock()
            with maybe_span(ctx.tracer, "analytics.bfs", len(roots), ambient=True):
                visited = [len(client.bfs(root)) for root in roots]
            seconds = clock() - began
            ctx.piece(seconds)
            bfs_s += seconds
            began = clock()
            with maybe_span(ctx.tracer, "analytics.pagerank", PAGERANK_SWEEPS, ambient=True):
                ranks = client.pagerank(iterations=PAGERANK_SWEEPS)
            seconds = clock() - began
            ctx.piece(seconds)
            pagerank_s += seconds
    ctx.duration("analytics_s", "analytics")
    ctx.per_layer.update({"analytics.bfs_s": bfs_s, "analytics.pagerank_s": pagerank_s})
    ctx.ledger.values("bfs visit counts", visited, [oracle.bfs_count(r) for r in roots])
    check_pagerank(ctx, ranks, oracle)


# --------------------------------------------------------------------- #
# The closed loop
# --------------------------------------------------------------------- #

def client_loop(client: GraphClient, script: Sequence[Op], gate: threading.Barrier,
                took: List[float], results: list, spans: List[Tuple[float, float]]) -> None:
    """One blocking request at a time; a request that raises is a failed one.

    Every :data:`BLOCK` requests the clients meet at ``gate`` (where the
    host's speed is sampled) and go on together; ``spans`` gets when each
    block began and ended, ``took`` the seconds of every request.
    """
    calls = {"insert": client.insert_edge, "delete": client.delete_edge,
             "has": client.has_edge}
    for start in range(0, len(script), BLOCK):
        gate.wait()
        block_began = clock()
        for kind, u, v in script[start:start + BLOCK]:
            began = clock()
            try:
                result = client.successors(u) if kind == "successors" else calls[kind](u, v)
                took.append(clock() - began)
            except Exception as error:  # the request failed: it misses every limit
                result = error
                took.append(float("inf"))
            results.append(sorted(result) if isinstance(result, list) else result)
        spans.append((block_began, clock()))
    gate.wait()


def closed_loop(client: GraphClient, scripts: Sequence[Sequence[Op]],
                writes: Sequence[List[float]], reads: Sequence[List[float]],
                speed: HostSpeed) -> Tuple[float, List[list], List[float]]:
    """Run every client's script concurrently (the scripts are equally long).

    Returns the seconds from go to the last reply as the clock read them,
    each client's results, and the seconds of every client's every block at
    the host's reference speed.  ``writes`` and ``reads`` get one list of
    latencies per client, at the reference speed too.
    """
    gate = threading.Barrier(len(scripts), action=speed.sample)
    results: List[list] = [[] for _ in scripts]
    took: List[List[float]] = [[] for _ in scripts]
    spans: List[List[Tuple[float, float]]] = [[] for _ in scripts]
    threads = [threading.Thread(target=client_loop, name=f"client-{index}",
                                args=(client, script, gate, took[index], results[index],
                                      spans[index]))
               for index, script in enumerate(scripts)]
    began = clock()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    seconds = clock() - began
    pieces: List[float] = []
    for index, script in enumerate(scripts):
        for block, (block_began, block_ended) in enumerate(spans[index]):
            factor = speed.between(block_began, block_ended)
            pieces.append((block_ended - block_began) / factor)
            at = block * BLOCK
            for (kind, _, _), sample in zip(script[at:at + BLOCK], took[index][at:at + BLOCK]):
                (reads if kind in ("has", "successors") else writes)[index].append(
                    sample / factor)
    return seconds, results, pieces


def phase_closed_loop(ctx: Context, client: GraphClient, inputs: ClosedInputs,
                      writes: Sequence[List[float]], reads: Sequence[List[float]]) -> None:
    """The mixed phase; a traced run does the first half of each script untraced."""
    scripts = inputs.scripts
    done: List[list] = [[] for _ in scripts]
    if ctx.tracer:
        half = len(scripts[0]) // 2
        with ctx.tracer.suspended():
            seconds, results, _ = closed_loop(client, [s[:half] for s in scripts], writes,
                                              reads, ctx.speed)
        untraced = seconds / half
        scripts = [s[half:] for s in scripts]
        done = results
        ctx.info["untraced_p50_s"] = (statistics.median(sum(reads, [])),
                                      statistics.median(sum(writes, [])))
    before = client.service.metrics_summary()
    requests = sum(len(script) for script in scripts)
    with ctx.phase("mixed", requests):
        seconds, results, ctx.pieces["mixed"] = closed_loop(client, scripts, writes, reads,
                                                            ctx.speed)
    ctx.phase_seconds["mixed"] = seconds
    ctx.rate_kops("mixed_kops", "mixed", requests, clients=len(scripts))
    record_service(ctx, before, client.service.metrics_summary())
    if ctx.tracer:
        traced = seconds / len(scripts[0])
        ctx.per_layer["bench.trace_overhead_pct"] = 100.0 * (traced / untraced - 1.0)
    for index, (first, second) in enumerate(zip(done, results)):
        ctx.ledger.values(f"client {index} results", first + second, inputs.expected[index])


def record_service(ctx: Context, before: dict, after: dict) -> None:
    """``service.*`` and ``replicate.*`` counters over one window of traffic."""
    def delta(key: str) -> float:
        return after[key] - before[key]

    resolved = max(1, delta("resolved"))
    batches = max(1, delta("batches"))
    writes = sum(after["submitted"].get(kind, 0) - before["submitted"].get(kind, 0)
                 for kind in ("insert", "delete"))
    lag_after, lag_before = after["replication"], before["replication"]
    samples = lag_after["lag_samples"] - lag_before["lag_samples"]
    lag_total = (lag_after["lag_mean"] * lag_after["lag_samples"]
                 - lag_before["lag_mean"] * lag_before["lag_samples"])
    ctx.per_layer.update({
        "service.mean_batch_size": resolved / batches,
        "service.store_calls_per_kop": 1e3 * delta("store_batch_calls") / resolved,
        "service.group_commits_per_kop": 1e3 * delta("group_commits") / max(1, writes),
        "service.rejected": delta("rejected"),
        "replicate.lag_mean": lag_total / samples if samples else 0.0,
        "replicate.lag_max": lag_after["lag_max"],
        "replicate.replica_reads": sum(lag_after["replica_reads"].values())
        - sum(lag_before["replica_reads"].values()),
    })


# --------------------------------------------------------------------- #
# The workload
# --------------------------------------------------------------------- #

def run_serve_closed(ctx: Context) -> None:
    ctx.top_layer = "service"
    ctx.info["fsync_policy"] = GROUP_COMMIT
    path = ctx.workdir / "store"

    def build():
        fresh_dir(ctx.workdir)
        inputs = closed_inputs(ctx.seed, ctx.sized(EDGES, 512), ctx.sized(CLIENT_OPS, 64))
        return inputs, durable_client(ctx, path, replicas=1)

    inputs, client = ctx.setup(build)
    writes: List[List[float]] = [[] for _ in range(CLIENTS)]
    reads: List[List[float]] = [[] for _ in range(CLIENTS)]
    try:
        meter = WalMeter(client.service.store)
        bulk_insert(ctx, client, inputs.graph)
        sharded = client.service.store.store
        ctx.per_layer.update(core_structure(sharded.counters, sharded.shards))
        ctx.per_layer["sharded.imbalance"] = imbalance(sharded.shard_sizes())
        bulk_has(ctx, client, inputs.graph)
        bulk_successors(ctx, client, inputs.after_load, SUCCESSOR_PASSES)
        phase_closed_loop(ctx, client, inputs, writes, reads)
        ctx.latencies(writes, reads)
        client_analytics(ctx, client, inputs.after_mixed)
        mutations = len(inputs.graph) + sum(
            1 for script in inputs.scripts for kind, _, _ in script
            if kind in ("insert", "delete"))
        record_persistence(ctx, client.service.store, meter, mutations)
        client.close()
        ctx.end_to_end["disk_bytes_per_edge"] = directory_bytes(path) / len(inputs.live)

        with ctx.phase("recover", len(inputs.live)):
            client = durable_client(ctx, path, replicas=1)
        ctx.duration("recover_s", "recover")
        ctx.ledger.edge_set("recovered edges", client.edges(), inputs.after_mixed)
        record_recovery(ctx, client.service.store)
        bulk_delete(ctx, client, inputs.live)
        if ctx.tracer and ctx.last_round:
            with ctx.tracer.suspended():
                replica_cost(ctx, inputs)
                direct_service_timings(ctx, inputs)
                direct_ship_timing(ctx, inputs)
    finally:
        client.close()
        shutil.rmtree(ctx.workdir, ignore_errors=True)


# --------------------------------------------------------------------- #
# Layers with no constructor seam: timed directly, on the recorded inputs
# --------------------------------------------------------------------- #

def replica_cost(ctx: Context, inputs: ClosedInputs) -> None:
    """What the replica adds to a request: the same scripts' first quarter on
    a ``replicas=0`` deployment against the untraced half of the main run."""
    quarter = len(inputs.scripts[0]) // 4
    client = durable_client(ctx, ctx.workdir / "no-replica", replicas=0)
    try:
        pipelined(client.insert_edges, inputs.graph, lambda count: None)
        plain_writes: List[List[float]] = [[] for _ in range(CLIENTS)]
        plain_reads: List[List[float]] = [[] for _ in range(CLIENTS)]
        _, results, _ = closed_loop(client, [s[:quarter] for s in inputs.scripts],
                                    plain_writes, plain_reads, ctx.speed)
        for index, got in enumerate(results):
            ctx.ledger.values(f"no-replica client {index}", got,
                              inputs.expected[index][:quarter])
    finally:
        client.close()
    with_replica_reads, with_replica_writes = ctx.info.pop("untraced_p50_s")
    ctx.per_layer["replicate.read_delta_us"] = 1e6 * (
        with_replica_reads - statistics.median(sum(plain_reads, [])))
    ctx.per_layer["replicate.write_delta_us"] = 1e6 * (
        with_replica_writes - statistics.median(sum(plain_writes, [])))


def direct_service_timings(ctx: Context, inputs: ClosedInputs) -> None:
    """``BoundedRequestQueue.put`` and ``gather_window`` + ``split_runs`` on
    the request sequence the clients sent, with no dispatcher running."""
    sequence = [op for pair in zip(*inputs.scripts) for op in pair]
    queue = BoundedRequestQueue(capacity=len(sequence))
    requests = [Request(kind, (u, v)) for kind, u, v in sequence]
    began = clock()
    for request in requests:
        queue.put(request)
    ctx.per_layer["service.queue_put_us"] = 1e6 * (clock() - began) / len(requests)
    began = clock()
    gathered = 0
    while gathered < len(requests):
        window = gather_window(queue, 128, 0.0)
        for _kind, run in split_runs(window):
            gathered += len(run)
    ctx.per_layer["service.gather_us"] = 1e6 * (clock() - began) / len(requests)


def direct_ship_timing(ctx: Context, inputs: ClosedInputs, limit: int = 2048) -> None:
    """``Primary.sync_and_pump()`` + ``Follower.wait_for()`` per commit, over
    commits of the size the service made (its mean write run)."""
    size = max(1, round(ctx.per_layer.get("service.mean_batch_size", 1.0)))
    edges = inputs.graph[:limit]
    store = PersistentStore(fresh_dir(ctx.workdir / "ship"),
                            store=ShardedCuckooGraph(num_shards=4),
                            sync_on_commit=False, own_store=True)
    group = ReplicationGroup(store, replicas=1)
    try:
        follower = group.followers[0]
        spent = 0.0
        for start in range(0, len(edges), size):
            store.insert_edges(edges[start:start + size])
            began = clock()
            group.primary.sync_and_pump()
            follower.wait_for(group.primary.commit_index)
            spent += clock() - began
        ctx.per_layer["replicate.ship_us_per_op"] = 1e6 * spent / len(edges)
    finally:
        group.close()
        store.close()
