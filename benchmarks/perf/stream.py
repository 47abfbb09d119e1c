"""The two closed-loop, single-thread stream workloads.

``stream_core`` drives a bare ``CuckooGraph`` one edge per call;
``stream_durable`` drives a fsync-per-commit ``PersistentStore`` over four
shards through the batch API.  Same stream, same phases, two entry points
into ``core``: a gain for one API that costs the other shows.
"""

from __future__ import annotations

import itertools
import shutil
from typing import Callable, Dict, List, Sequence

from repro import CuckooGraph, PersistentStore, ShardedCuckooGraph, recover
from repro.analytics import TraversalEngine, bfs, pagerank
from repro.baselines import COMPETITORS
from repro.persist import WAL_HEADER_SIZE

from .common import (
    Context,
    StreamInputs,
    directory_bytes,
    fresh_dir,
    miss_for,
    restore_from_snapshot,
    stream_inputs,
)
from .layers import core_structure, imbalance
from .oracle import Edge, Oracle
from .tracing import clock, maybe_span

#: Stream sizes per round at ``--seconds 15``: large enough that
#: TRANSFORMATION, kicks and both denylists fire in every round; the durable
#: stream is smaller because each of its edges costs twice as much.
CORE_EDGES = 48_000
DURABLE_EDGES = 40_000
#: Edges per span in the per-edge loops (one span per call would be 10^6 spans).
CHUNK = 1024
#: Edges per call of the batch API.
BATCH = 256
#: Passes over all sources in the ``successors`` phase.
SUCCESSOR_PASSES = 10
BFS_ROOTS = 3
PAGERANK_SWEEPS = 5

EDGE_CALLS = ("insert_edge", "has_edge", "delete_edge", "successors")
BATCH_CALLS = ("insert_edges", "delete_edges", "has_edges", "successors_many")


# --------------------------------------------------------------------- #
# Drivers: how the runner calls the store
# --------------------------------------------------------------------- #

class PerEdgeDriver:
    """One store call per edge, looped in C (``starmap``) a chunk at a time.

    Each chunk is one piece of the phase in progress (``piece`` takes its
    seconds and returns the host's speed factor around it) and, when tracing,
    one ``core.<call>`` span: on this workload the runner calls ``core``
    directly, so its spans are timed in place.
    """

    def __init__(self, store, tracer, writes: List[float], reads: List[float],
                 piece: Callable[[float], float] = lambda seconds: 1.0):
        self.store = store
        self.tracer = tracer
        self.writes = writes
        self.reads = reads
        self.piece = piece

    def _chunks(self, call: str, items: Sequence, mapper) -> list:
        function = getattr(self.store, call)
        out: list = []
        for start in range(0, len(items), CHUNK):
            chunk = items[start:start + CHUNK]
            began = clock()
            with maybe_span(self.tracer, f"core.{call}", len(chunk)):
                out.extend(mapper(function, chunk))
            self.piece(clock() - began)
        return out

    def insert(self, edges: Sequence[Edge]) -> int:
        return sum(self._chunks("insert_edge", edges, itertools.starmap))

    def delete(self, edges: Sequence[Edge]) -> int:
        return sum(self._chunks("delete_edge", edges, itertools.starmap))

    def has(self, edges: Sequence[Edge]) -> List[bool]:
        return self._chunks("has_edge", edges, itertools.starmap)

    def successors(self, nodes: Sequence[int]) -> Dict[int, List[int]]:
        return dict(zip(nodes, self._chunks("successors", nodes, map)))

    def mixed(self, blocks) -> list:
        """Interleaved operations, every call timed on its own (blocks of 1)."""
        store = self.store
        calls = {"insert": store.insert_edge, "delete": store.delete_edge,
                 "has": store.has_edge}
        results = []
        for start in range(0, len(blocks), CHUNK):
            writes: List[float] = []
            reads: List[float] = []
            sinks = {"insert": writes.append, "delete": writes.append, "has": reads.append}
            chunk_began = clock()
            with maybe_span(self.tracer, "core.mixed", CHUNK):
                for kind, ((u, v),) in blocks[start:start + CHUNK]:
                    call = calls[kind]
                    began = clock()
                    result = call(u, v)
                    sinks[kind](clock() - began)
                    results.append([result])
            factor = self.piece(clock() - chunk_began)
            self.writes.extend(seconds / factor for seconds in writes)
            self.reads.extend(seconds / factor for seconds in reads)
        return results


class BatchDriver:
    """One store call per :data:`BATCH` edges; every call is one piece of the
    phase in progress, and every edge call a latency sample."""

    def __init__(self, store, writes: List[float], reads: List[float],
                 piece: Callable[[float], float]):
        self.store = store
        self.writes = writes
        self.reads = reads
        self.piece = piece

    def _calls(self, call: str, items: Sequence, sink: List[float]) -> list:
        function = getattr(self.store, call)
        out = []
        for start in range(0, len(items), BATCH):
            began = clock()
            out.append(function(items[start:start + BATCH]))
            seconds = clock() - began
            sink.append(seconds / self.piece(seconds))
        return out

    def insert(self, edges: Sequence[Edge]) -> int:
        return sum(self._calls("insert_edges", edges, self.writes))

    def delete(self, edges: Sequence[Edge]) -> int:
        return sum(self._calls("delete_edges", edges, self.writes))

    def has(self, edges: Sequence[Edge]) -> List[bool]:
        return list(itertools.chain.from_iterable(
            self._calls("has_edges", edges, self.reads)))

    def successors(self, nodes: Sequence[int]) -> Dict[int, List[int]]:
        """Not a latency sample: what a call costs is the degrees of its
        nodes, and the one call that holds the hubs would be the read p99."""
        merged: Dict[int, List[int]] = {}
        for part in self._calls("successors_many", nodes, []):
            merged.update(part)
        return merged

    def mixed(self, blocks) -> list:
        """Interleaved operations: one call per block."""
        results = []
        for kind, block in blocks:
            if kind == "has":
                results.append(self._calls("has_edges", block, self.reads)[0])
            else:
                call = "insert_edges" if kind == "insert" else "delete_edges"
                results.append(self._calls(call, block, self.writes)[0])
        return results


# --------------------------------------------------------------------- #
# Phases shared by both workloads
# --------------------------------------------------------------------- #

def phase_insert(ctx: Context, driver, store, inputs: StreamInputs) -> None:
    edges = inputs.graph
    accesses = store.accesses
    with ctx.phase("insert", len(edges)):
        inserted = driver.insert(edges)
    ctx.rate_kops("insert_kops", "insert", len(edges))
    ctx.ledger.count("insert", inserted, len(edges), len(edges))
    ctx.per_layer["core.accesses_per_insert"] = (store.accesses - accesses) / len(edges)
    ctx.end_to_end["mem_bytes_per_edge"] = store.memory_bytes() / store.num_edges


def phase_has(ctx: Context, driver, store, present: Sequence[Edge],
              absent: Sequence[Edge]) -> None:
    # Hit and miss by turns, so that every call of the batch API costs the same.
    probes = [edge for pair in zip(present, absent) for edge in pair]
    accesses = store.accesses
    with ctx.phase("has", len(probes)):
        answers = driver.has(probes)
    ctx.rate_kops("has_kops", "has", len(probes))
    ctx.ledger.values("has", answers, [True, False] * len(present))
    ctx.per_layer["core.accesses_per_has"] = (store.accesses - accesses) / len(probes)


def phase_successors(ctx: Context, driver, oracle: Oracle) -> None:
    sources = sorted(oracle.adj)
    with ctx.phase("successors", SUCCESSOR_PASSES * len(sources)):
        for _ in range(SUCCESSOR_PASSES):
            lists = driver.successors(sources)
    ctx.rate_kops("successors_kops", "successors", SUCCESSOR_PASSES * len(sources))
    ctx.ledger.successor_lists("successors", lists, oracle, sources)


def phase_mixed(ctx: Context, driver, inputs: StreamInputs) -> None:
    """The interleaved phase.  A traced run does its first half untraced:
    same mix, same graph size, so the two halves' rates give the overhead."""
    blocks = inputs.mixed
    per_block = len(blocks[0][1])
    results = []
    if ctx.tracer:
        half = len(blocks) // 2
        with ctx.tracer.suspended():
            began = clock()
            results.extend(driver.mixed(blocks[:half]))
            untraced = (clock() - began) / half
        blocks = blocks[half:]
    with ctx.phase("mixed", len(blocks) * per_block):
        results.extend(driver.mixed(blocks))
    ctx.rate_kops("mixed_kops", "mixed", len(blocks) * per_block)
    if ctx.tracer:
        traced = ctx.phase_seconds["mixed"] / len(blocks)
        ctx.per_layer["bench.trace_overhead_pct"] = 100.0 * (traced / untraced - 1.0)
    for (kind, block), got, want in zip(inputs.mixed, results, inputs.mixed_expected):
        if isinstance(got, int):  # a batch mutation returns how many edges took effect
            ctx.ledger.count(f"mixed {kind}", got, sum(want), len(block))
        else:
            ctx.ledger.values(f"mixed {kind}", got, want)


def phase_analytics(ctx: Context, store, oracle: Oracle) -> None:
    """BFS from the top-degree roots + PageRank sweeps through TraversalEngine."""
    roots = oracle.top_sources(BFS_ROOTS)
    engine = TraversalEngine(store)
    tracer = ctx.tracer
    with ctx.phase("analytics"):
        began = clock()
        with maybe_span(tracer, "analytics.bfs", len(roots), ambient=True):
            visited = [len(bfs(store, root, engine=engine)) for root in roots]
        bfs_s = clock() - began
        ctx.piece(bfs_s)
        began = clock()
        with maybe_span(tracer, "analytics.pagerank", PAGERANK_SWEEPS, ambient=True):
            ranks = pagerank(store, iterations=PAGERANK_SWEEPS, engine=engine)
        pagerank_s = clock() - began
        ctx.piece(pagerank_s)
    ctx.duration("analytics_s", "analytics")
    ctx.per_layer.update({"analytics.bfs_s": bfs_s, "analytics.pagerank_s": pagerank_s,
                          "analytics.batch_calls": engine.batch_calls})
    ctx.ledger.values("bfs visit counts", visited, [oracle.bfs_count(r) for r in roots])
    check_pagerank(ctx, ranks, oracle)


def check_pagerank(ctx: Context, ranks: Dict[int, float], oracle: Oracle) -> None:
    """Scores cover exactly the oracle's nodes and sum to one."""
    good = set(ranks) == oracle.nodes() and abs(sum(ranks.values()) - 1.0) < 1e-6
    ctx.ledger.values("pagerank nodes and mass", [good], [True])


def phase_delete(ctx: Context, driver, store, live: Sequence[Edge]) -> None:
    accesses = store.accesses
    with ctx.phase("delete", len(live)):
        deleted = driver.delete(live)
    ctx.rate_kops("delete_kops", "delete", len(live))
    ctx.ledger.count("delete", deleted, len(live), len(live))
    ctx.ledger.count("edges left after delete", store.num_edges, 0, 1)
    ctx.per_layer["core.accesses_per_delete"] = (store.accesses - accesses) / len(live)


def misses_for(edges: Sequence[Edge]) -> List[Edge]:
    return [miss_for(edge, i) for i, edge in enumerate(edges)]


# --------------------------------------------------------------------- #
# stream_core
# --------------------------------------------------------------------- #

def run_stream_core(ctx: Context) -> None:
    tracer = ctx.tracer
    ctx.info["fsync_policy"] = "none: in memory, no WAL on this workload"

    def build():
        return stream_inputs(ctx.seed, ctx.sized(CORE_EDGES), block=1), CuckooGraph()

    inputs, graph = ctx.setup(build)
    writes: List[float] = []
    reads: List[float] = []
    driver = PerEdgeDriver(graph, tracer, writes, reads, ctx.piece)

    phase_insert(ctx, driver, graph, inputs)
    ctx.per_layer.update(core_structure(graph.counters, [graph]))
    phase_has(ctx, driver, graph, inputs.graph, inputs.absent)
    phase_successors(ctx, driver, inputs.before_mixed)
    phase_mixed(ctx, driver, inputs)
    ctx.latencies([writes], [reads], lockstep=True)
    if tracer:
        # The kernels reach the store through successors_many only.
        tracer.spans_on(graph, "core", ("successors_many",))
    phase_analytics(ctx, graph, inputs.after_mixed)

    restored = CuckooGraph()
    if tracer:
        tracer.spans_on(restored, "core", ("insert_edges",))  # what load_snapshot calls
    restore_from_snapshot(ctx, graph, restored, inputs.after_mixed)

    phase_delete(ctx, driver, graph, inputs.live)
    if tracer and ctx.last_round:
        spruce_reference(ctx, inputs)


def spruce_reference(ctx: Context, inputs: StreamInputs) -> None:
    """The same insert + has stream on the Spruce baseline (reference only),
    timed and scaled like the phases it is compared with, and not traced."""
    driver = PerEdgeDriver(COMPETITORS["Spruce"](), None, [], [], ctx.piece)
    with ctx.tracer.suspended():
        with ctx.phase("spruce_insert"):
            driver.insert(inputs.graph)
        with ctx.phase("spruce_has"):
            driver.has(inputs.graph + inputs.absent)
    edges = len(inputs.graph)
    ctx.per_layer["baselines.spruce_insert_kops"] = edges / sum(ctx.pieces["spruce_insert"]) / 1e3
    ctx.per_layer["baselines.spruce_has_kops"] = 2 * edges / sum(ctx.pieces["spruce_has"]) / 1e3


# --------------------------------------------------------------------- #
# stream_durable
# --------------------------------------------------------------------- #

SHARDS = 4
#: A quarter of the default: the per-round stream is a sixth of the 300 000
#: edges the default 1 MiB was sized against, and each round should still see
#: several snapshot-and-truncate cycles.
COMPACT_WAL_BYTES = 1 << 18
FSYNC_PER_COMMIT = ("fsync per commit (sync_on_commit=True): every batch call "
                    "fsyncs each WAL segment it touched before it returns")


def sharded_store(tracer, shards: int = SHARDS) -> ShardedCuckooGraph:
    """The sharded front-end; when tracing, its calls and its shards' are spanned."""
    if tracer is None:
        return ShardedCuckooGraph(num_shards=shards)
    store = ShardedCuckooGraph(
        num_shards=shards,
        shard_factory=lambda config: tracer.leaves_on(CuckooGraph(config), "core", EDGE_CALLS),
    )
    return tracer.spans_on(store, "sharded", BATCH_CALLS)


def spanned_persist(tracer, store: PersistentStore) -> PersistentStore:
    if tracer is not None:
        tracer.spans_on(store, "persist",
                        ("insert_edges", "delete_edges", "insert_edge", "delete_edge", "sync"))
    return store


class WalMeter:
    """Bytes appended to a store's WAL, counted across compactions.

    The pre-truncation event carries the segment sizes a compaction is about
    to cut, so nothing has to be sampled on the mutation path.
    """

    def __init__(self, store: PersistentStore):
        self.store = store
        self.cut = 0
        store.compaction_policy.subscribe(self._before_compaction)

    def _before_compaction(self, event) -> None:
        self.cut += sum(event.wal_offsets) - WAL_HEADER_SIZE * len(event.wal_offsets)

    def written(self) -> int:
        return self.cut + self.store.wal_bytes() - WAL_HEADER_SIZE * self.store.segments


def record_persistence(ctx: Context, store: PersistentStore, meter: WalMeter,
                       mutations: int) -> None:
    summary = store.persistence_summary()
    ctx.per_layer.update({
        "persist.fsyncs_per_kop": 1e3 * summary["wal_syncs"] / mutations,
        "persist.wal_bytes_per_op": meter.written() / mutations,
        "persist.compactions": summary["compactions"],
    })


def record_recovery(ctx: Context, store: PersistentStore) -> None:
    recovery = store.last_recovery
    replayed = recovery["snapshot_rows"] + recovery["wal_ops"]
    ctx.per_layer.update({
        "persist.recover_edges_per_s": replayed / recovery["seconds"],
        "persist.recover_snapshot_share": recovery["snapshot_rows"] / max(1, replayed),
    })


def run_stream_durable(ctx: Context) -> None:
    tracer = ctx.tracer
    path = ctx.workdir / "store"
    ctx.info["fsync_policy"] = FSYNC_PER_COMMIT

    def build():
        fresh_dir(ctx.workdir)
        store = PersistentStore(path, store=sharded_store(tracer), sync_on_commit=True,
                                compact_wal_bytes=COMPACT_WAL_BYTES, own_store=True)
        inputs = stream_inputs(ctx.seed, ctx.sized(DURABLE_EDGES), block=BATCH)
        return inputs, spanned_persist(tracer, store)

    inputs, store = ctx.setup(build)
    writes: List[float] = []
    reads: List[float] = []
    try:
        meter = WalMeter(store)
        driver = BatchDriver(store, writes, reads, ctx.piece)
        phase_insert(ctx, driver, store, inputs)
        ctx.per_layer.update(core_structure(store.counters, store.store.shards))
        ctx.per_layer["sharded.imbalance"] = imbalance(store.store.shard_sizes())
        phase_mixed(ctx, driver, inputs)
        mutations = len(inputs.graph) + sum(
            len(block) for kind, block in inputs.mixed if kind != "has")
        record_persistence(ctx, store, meter, mutations)
        store.close()
        ctx.end_to_end["disk_bytes_per_edge"] = directory_bytes(path) / len(inputs.live)

        with ctx.phase("recover", len(inputs.live)):
            store = recover(path, store=sharded_store(tracer), sync_on_commit=True,
                            compact_wal_bytes=COMPACT_WAL_BYTES)
        ctx.duration("recover_s", "recover")
        ctx.ledger.edge_set("recovered edges", store.edges(), inputs.after_mixed)
        record_recovery(ctx, store)
        spanned_persist(tracer, store)
        driver = BatchDriver(store, writes, reads, ctx.piece)
        phase_has(ctx, driver, store, inputs.live, misses_for(inputs.live))
        phase_successors(ctx, driver, inputs.after_mixed)
        phase_analytics(ctx, store, inputs.after_mixed)
        phase_delete(ctx, driver, store, inputs.live)
        ctx.latencies([writes], [reads], lockstep=True)
    finally:
        store.close()
        shutil.rmtree(ctx.workdir, ignore_errors=True)
