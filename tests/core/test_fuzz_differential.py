"""Randomized differential fuzzer: every store vs a dict-of-sets oracle.

Seeded random operation streams -- inserts (with duplicates and self-loops),
deletes (including of absent edges), membership queries, successor queries
and re-inserts after delete -- are replayed three ways:

* **per-operation** against every store in the contract matrix
  (``ALL_STORE_FACTORIES``), asserting each individual result against the
  oracle;
* **batched** through the sharded front-end's batch APIs;
* **through the GraphService front door**, submitting the whole stream as
  futures and checking every future's result against an oracle replay in
  submission order, then again as ``GraphClient`` batch calls of random
  sizes around ``max_batch`` (each call travels as list requests) -- over
  the in-memory service, and over a group-committing service with a read
  replica whose commits are still in flight when the next call arrives;
* **persisted and recovered**: the stream runs through a WAL-wrapped
  :class:`~repro.persist.PersistentStore` in random batch chunks, and at
  random points (and at the end, and after a simulated torn-tail crash)
  the on-disk state is recovered into a fresh store and compared to the
  oracle.

Every assertion message carries the reproducing seed (it is also in the
pytest parametrize id); rerun a failure with
``pytest tests/core/test_fuzz_differential.py -k <seed>``.  The number of
seeded runs is controlled by ``--fuzz-runs`` (see ``tests/conftest.py``);
CI uses the small fixed sweep on every push and an extended sweep on main.
"""

from __future__ import annotations

import random
import shutil

import pytest

from repro import ShardedCuckooGraph, WeightedCuckooGraph
from repro.persist import PersistentStore, recover
from repro.service import GraphClient, GraphService
from repro.tiered import TieredStore

from ..conftest import ALL_STORE_FACTORIES

#: Small universe so inserts, deletes and queries collide constantly.
NODE_RANGE = 48

#: Operations per fuzz stream (per seed, per store).
STREAM_LENGTH = 400

#: insert-heavy mix, so the graph grows and deletes/queries hit real edges.
OP_MIX = ("insert", "insert", "insert", "delete", "query", "successors")


def generate_ops(seed: int, length: int = STREAM_LENGTH):
    """Seeded random op stream: ``("insert"|"delete"|"query", u, v)`` or
    ``("successors", u, None)``.  Self-loops and duplicates included."""
    rng = random.Random(seed)
    ops = []
    for _ in range(length):
        action = rng.choice(OP_MIX)
        u = rng.randrange(NODE_RANGE)
        if action == "successors":
            ops.append((action, u, None))
        elif rng.random() < 0.05:
            ops.append((action, u, u))  # explicit self-loop traffic
        else:
            ops.append((action, u, rng.randrange(NODE_RANGE)))
    return ops


#: Sources of a skewed stream: this many hot ones take most operations,
#: over this many targets, so one window holds dense same-source conflicts.
HOT_SOURCES = 4
HOT_SHARE = 0.85
SKEWED_TARGETS = 12


def generate_skewed_ops(seed: int, length: int = STREAM_LENGTH):
    """Seeded op stream shaped like :func:`generate_ops`, except that a
    ``HOT_SHARE`` of the operations fall on ``HOT_SOURCES`` sources and every
    target is one of ``SKEWED_TARGETS`` nodes."""
    rng = random.Random(seed * 7 + 3)
    hot = rng.sample(range(NODE_RANGE), HOT_SOURCES)
    ops = []
    for _ in range(length):
        action = rng.choice(OP_MIX)
        u = rng.choice(hot) if rng.random() < HOT_SHARE else rng.randrange(NODE_RANGE)
        ops.append((action, u, None if action == "successors"
                    else rng.randrange(SKEWED_TARGETS)))
    return ops


class Oracle:
    """Trivially correct model: dict of multisets (weighted) or sets.

    ``weighted=True`` mirrors the extended CuckooGraph semantics: duplicate
    inserts increment a weight, ``insert_edge`` reports ``True`` only for a
    new edge, and ``delete_edge`` reports ``True`` only when the weight hits
    zero and the edge is actually removed.
    """

    def __init__(self, weighted: bool = False):
        self.weighted = weighted
        self.counts: dict[tuple[int, int], int] = {}

    def insert(self, u: int, v: int) -> bool:
        count = self.counts.get((u, v), 0)
        self.counts[(u, v)] = (count + 1) if self.weighted else 1
        return count == 0

    def delete(self, u: int, v: int) -> bool:
        count = self.counts.get((u, v), 0)
        if count == 0:
            return False
        if count > 1:
            self.counts[(u, v)] = count - 1
            return False
        del self.counts[(u, v)]
        return True

    def has(self, u: int, v: int) -> bool:
        return (u, v) in self.counts

    def successors(self, u: int) -> set[int]:
        return {v for (src, v) in self.counts if src == u}

    def edges(self) -> list[tuple[int, int]]:
        return sorted(self.counts)

    def apply(self, op) -> object:
        action, u, v = op
        if action == "insert":
            return self.insert(u, v)
        if action == "delete":
            return self.delete(u, v)
        if action == "query":
            return self.has(u, v)
        return self.successors(u)


def apply_to_store(store, op) -> object:
    action, u, v = op
    if action == "insert":
        return store.insert_edge(u, v)
    if action == "delete":
        return store.delete_edge(u, v)
    if action == "query":
        return store.has_edge(u, v)
    return store.successors(u)


def assert_final_state(store, oracle: Oracle, context: str) -> None:
    assert sorted(store.edges()) == oracle.edges(), context
    assert store.num_edges == len(oracle.counts), context
    for u in range(NODE_RANGE):
        assert sorted(store.successors(u)) == sorted(oracle.successors(u)), \
            f"{context}: successors({u}) diverged"
    if oracle.weighted:
        for (u, v), weight in oracle.counts.items():
            assert store.edge_weight(u, v) == weight, \
                f"{context}: weight of {(u, v)} diverged"


# --------------------------------------------------------------------- #
# 1. Per-operation replay across the whole store matrix
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("store_name", sorted(ALL_STORE_FACTORIES))
def test_fuzz_store_matrix(store_name, fuzz_seed):
    """Every per-op result of every store must match the oracle, op by op."""
    store = ALL_STORE_FACTORIES[store_name]()
    try:
        oracle = Oracle(weighted=store.weighted)
        for index, op in enumerate(generate_ops(fuzz_seed)):
            expected = oracle.apply(op)
            actual = apply_to_store(store, op)
            if op[0] == "successors":
                actual = sorted(actual)
                expected = sorted(expected)
            assert actual == expected, (
                f"seed={fuzz_seed} store={store_name} op#{index}={op}: "
                f"got {actual!r}, oracle says {expected!r}"
            )
        assert_final_state(store, oracle,
                           f"seed={fuzz_seed} store={store_name}")
    finally:
        store.close()


# --------------------------------------------------------------------- #
# 2. Batched replay through the sharded front-end
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("weighted", [False, True], ids=["basic", "weighted"])
@pytest.mark.parametrize("num_shards", [1, 4])
def test_fuzz_sharded_batched(num_shards, weighted, fuzz_seed):
    """Random per-kind batches through the batch APIs agree with the oracle.

    With weighted shards a duplicate in an insert batch bumps a weight and
    a delete batch counts only the edges whose weight reached zero."""
    rng = random.Random(fuzz_seed * 31 + num_shards)
    ops = generate_ops(fuzz_seed)
    oracle = Oracle(weighted=weighted)
    context = f"seed={fuzz_seed} shards={num_shards} weighted={weighted}"
    with ShardedCuckooGraph(num_shards=num_shards, weighted=weighted) as store:
        position = 0
        while position < len(ops):
            chunk = ops[position:position + rng.randrange(20, 90)]
            position += len(chunk)
            inserts = [(u, v) for a, u, v in chunk if a == "insert"]
            deletes = [(u, v) for a, u, v in chunk if a == "delete"]
            queries = [(u, v) for a, u, v in chunk if a == "query"]
            frontier = [u for a, u, _ in chunk if a == "successors"]

            # Replay grouped (inserts, then deletes, then reads) on both
            # sides, comparing aggregate counts and every read answer.
            assert store.insert_edges(inserts) == \
                sum(oracle.insert(u, v) for u, v in inserts), context
            assert store.delete_edges(deletes) == \
                sum(oracle.delete(u, v) for u, v in deletes), context
            assert store.has_edges(queries) == \
                [oracle.has(u, v) for u, v in queries], context
            fanned = store.successors_many(frontier)
            for u in dict.fromkeys(frontier):
                assert sorted(fanned[u]) == sorted(oracle.successors(u)), \
                    f"{context}: successors_many({u}) diverged"
        assert_final_state(store, oracle, context)


# --------------------------------------------------------------------- #
# 3. The whole stream through the GraphService front door
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("weighted", [False, True], ids=["basic", "weighted"])
@pytest.mark.parametrize("num_shards", [1, 3])
def test_fuzz_graph_service(num_shards, weighted, fuzz_seed):
    """Service futures must resolve to exactly the oracle's per-op results.

    The stream is submitted before the dispatcher starts, so the whole run
    flows through coalesced windows (maximum batching pressure), and the
    service's conflict-layer run splitting must keep every result equal to
    the sequential oracle's -- whether a window's runs land on one shard or
    spread.  On weighted shards the oracle is a standalone
    ``WeightedCuckooGraph`` fed the same ops one call at a time: a
    duplicate insert bumps a weight, and only the delete that takes it to
    zero resolves ``True``.
    """
    ops = generate_ops(fuzz_seed)
    context = f"seed={fuzz_seed} shards={num_shards} weighted={weighted}"
    oracle = Oracle()
    reference = WeightedCuckooGraph() if weighted else None
    expected = ([apply_to_store(reference, op) for op in ops] if weighted
                else [oracle.apply(op) for op in ops])
    with ShardedCuckooGraph(num_shards=num_shards, weighted=weighted) as store:
        replay_through_service(store, ops, expected, context)
        if weighted:
            assert sorted(store.weighted_edges()) == \
                sorted(reference.weighted_edges()), context
        else:
            assert_final_state(store, oracle, context)


def test_fuzz_graph_service_tiered_skewed(fuzz_seed):
    """The service lane over a ``TieredStore`` with one hot shard of four,
    fed a skewed-source stream (most operations on a handful of sources,
    like zipf keys): one dispatch window then holds dense same-source
    conflicts for the conflict layers to order, and the mutating touches
    migrate shards between tiers inside a window."""
    ops = generate_skewed_ops(fuzz_seed)
    context = f"seed={fuzz_seed} tiered skewed"
    oracle = Oracle()
    expected = [oracle.apply(op) for op in ops]
    with TieredStore(num_shards=4, hot_shards=1) as store:
        replay_through_service(store, ops, expected, context)
        assert_final_state(store, oracle, context)
        assert store.promotions > 0, f"{context}: no shard ever migrated"


def replay_through_service(store, ops, expected, context) -> None:
    """Submit ``ops`` as single requests before the dispatcher starts, then
    check every future against ``expected`` (successor lists as sets)."""
    service = GraphService(store, max_batch=64,
                           queue_capacity=len(ops), policy="block")
    futures = []
    for action, u, v in ops:
        if action == "insert":
            futures.append(service.insert_edge(u, v))
        elif action == "delete":
            futures.append(service.delete_edge(u, v))
        elif action == "query":
            futures.append(service.has_edge(u, v))
        else:
            futures.append(service.successors(u))
    service.start()
    try:
        for index, (op, future, want) in enumerate(zip(ops, futures, expected)):
            got = future.result(timeout=30)
            if op[0] == "successors":
                got, want = sorted(got), sorted(want)
            assert got == want, (
                f"{context} op#{index}={op}: future resolved to {got!r}, "
                f"oracle says {want!r}"
            )
    finally:
        service.close()
    # Read once the dispatcher is joined: it counts a run as resolved just
    # after setting the run's futures.
    summary = service.metrics_summary()
    assert summary["resolved"] == len(ops), context
    assert summary["failed"] == 0, context


@pytest.mark.parametrize("max_batch", [1, 8, 64])
def test_fuzz_graph_client_batches(max_batch, fuzz_seed):
    """``GraphClient`` batch calls of sizes around ``max_batch`` -- one
    short of it, exactly it, one over, several chunks -- interleaved with
    single-op calls, must return what the oracle says for the same items in
    the same order (duplicates within and across chunks included)."""
    store = ShardedCuckooGraph(num_shards=3)
    client = GraphClient(GraphService(store, own_store=True, max_batch=max_batch),
                         close_service=True)
    fuzz_client_batches(client, store, max_batch, fuzz_seed, durable=False)


@pytest.mark.parametrize("max_batch", [1, 8, 64])
def test_fuzz_graph_client_batches_durable_replicated(max_batch, fuzz_seed, tmp_path):
    """The same stream over group commit and one read replica, its single
    mutations sent as *un-awaited* service futures: their commits are still
    in flight when the blocking reads and batch calls behind them -- of the
    same sources and of others -- must already answer as the sequential
    oracle does."""
    client = GraphClient.durable(tmp_path / "svc", num_shards=3, replicas=1,
                                 max_batch=max_batch)
    fuzz_client_batches(client, client.service.store, max_batch, fuzz_seed, durable=True)


def fuzz_client_batches(client, store, max_batch, fuzz_seed, durable):
    rng = random.Random(fuzz_seed * 131 + max_batch)
    ops = generate_ops(fuzz_seed, length=4 * STREAM_LENGTH)
    oracle = Oracle()
    context = f"seed={fuzz_seed} max_batch={max_batch} durable={durable}"
    sizes = [1, max(1, max_batch - 1), max_batch, max_batch + 1,
             2 * max_batch, 3 * max_batch + 2]
    unawaited = []  # (future, what the oracle said at submission, op)
    with client:
        position = 0
        while position < len(ops):
            if rng.random() < 0.2:  # a single-op call between the batches
                op = ops[position]
                position += 1
                if durable and op[0] in ("insert", "delete"):
                    submit = (client.service.insert_edge if op[0] == "insert"
                              else client.service.delete_edge)
                    unawaited.append((submit(op[1], op[2]), oracle.apply(op), op))
                    continue
                got, want = apply_to_store(client, op), oracle.apply(op)
                if op[0] == "successors":
                    got, want = sorted(got), sorted(want)
                assert got == want, f"{context} single {op}"
                continue
            # One batch call: the next `size` ops lend their endpoints.
            action = ops[position][0]
            size = rng.choice(sizes + [rng.randrange(1, 4 * max_batch + 1)])
            chunk = ops[position:position + size]
            position += len(chunk)
            edges = [(u, u if v is None else v) for _, u, v in chunk]
            where = f"{context} {action} x{len(chunk)}"
            if action == "insert":
                assert client.insert_edges(edges) == \
                    sum(oracle.insert(u, v) for u, v in edges), where
            elif action == "delete":
                assert client.delete_edges(edges) == \
                    sum(oracle.delete(u, v) for u, v in edges), where
            elif action == "query":
                assert client.has_edges(edges) == \
                    [oracle.has(u, v) for u, v in edges], where
            else:
                frontier = [u for u, _ in edges]
                fanned = client.successors_many(frontier)
                assert list(fanned) == list(dict.fromkeys(frontier)), where
                for u, successors in fanned.items():
                    assert sorted(successors) == sorted(oracle.successors(u)), \
                        f"{where}: successors_many({u}) diverged"
        for future, want, op in unawaited:
            assert future.result(timeout=30) == want, f"{context} un-awaited {op}"
        assert_final_state(store, oracle, context)
        if durable:
            follower = client.service.replication.followers[0]
            client.has_edge(0, 0)  # a read barrier: the replica catches up
            assert sorted(follower.store.edges()) == oracle.edges(), context
    # Read once the dispatcher is joined: it counts a run as resolved just
    # after setting the run's futures.
    summary = client.service.metrics_summary()
    assert summary["failed"] == summary["cancelled"] == 0, context
    assert summary["resolved"] == summary["submitted_total"], context
    assert summary["items_resolved"] == summary["items_submitted"], context


# --------------------------------------------------------------------- #
# 4. Persist-and-recover: the stream through a WAL-wrapped store
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("num_shards, kind", [
    (1, "basic"), (1, "weighted"), (3, "basic"), (3, "weighted"), (3, "tiered"),
], ids=["1-basic", "1-weighted", "3-basic", "3-weighted", "3-tiered"])
def test_fuzz_persist_and_recover(num_shards, kind, fuzz_seed, tmp_path):
    """Recovery must reproduce the oracle at every probe point and at the end.

    The op stream is committed through the batch APIs in random chunks;
    after random chunks a copy of the directory (flushed, not yet closed)
    is recovered into a fresh store and compared to the oracle mid-flight.
    At the end, the closed store is recovered, then a torn tail is
    simulated on one segment and recovery is checked to land on the
    previous group-commit boundary.
    Over weighted shards every recovered weight must match too.  The tiered
    lane has one hot shard of three, so shards migrate between tiers while
    the stream is being logged (the deployment ``repro.traffic`` builds for
    ``scheme="tiered"`` with a WAL).
    """
    rng = random.Random(fuzz_seed * 17 + num_shards)
    ops = generate_ops(fuzz_seed)
    oracle = Oracle(weighted=kind == "weighted")
    context = f"seed={fuzz_seed} shards={num_shards} {kind} persist"
    base = tmp_path / f"persist-{num_shards}"

    def fresh_inner():
        if kind == "tiered":
            return TieredStore(num_shards=num_shards, hot_shards=1)
        return ShardedCuckooGraph(num_shards=num_shards, weighted=kind == "weighted")

    store = PersistentStore(base, store=fresh_inner(), own_store=True,
                            sync_on_commit=False, compact_wal_bytes=None)
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
        if rng.random() < 0.25:
            # Mid-flight probe: flush buffered commits, then recover a copy
            # of the directory (the live store holds the writer lock on the
            # original) and compare against the oracle.
            store.sync()
            probe_path = tmp_path / "probe"
            shutil.copytree(base, probe_path, ignore=shutil.ignore_patterns("lock"))
            probe = recover(probe_path, store=fresh_inner(), own_store=True)
            assert_final_state(probe, oracle, f"{context} mid-flight")
            probe.close()
            shutil.rmtree(probe_path)

    if kind == "tiered":
        assert store.store.promotions > 0, f"{context}: no shard ever migrated"
    store.close()
    recovered = recover(base, store=fresh_inner())
    assert_final_state(recovered, oracle, f"{context} final")
    recovered.close()  # releases the directory for the next recovery

    # Torn-tail crash simulation: chop bytes off the largest segment; the
    # recovered state must equal the oracle minus the torn commit(s) -- a
    # subset of the final state's records, and still a clean replay.
    segments = sorted(base.glob("wal-*.bin"))
    victim = max(segments, key=lambda p: p.stat().st_size)
    data = victim.read_bytes()
    victim.write_bytes(data[:-rng.randrange(1, 24)])
    torn = recover(base, store=fresh_inner())
    replayed = torn.last_recovery["wal_ops"]
    total_ops = sum(1 for a, _, _ in ops if a in ("insert", "delete"))
    assert replayed < total_ops, context
    torn.close()
