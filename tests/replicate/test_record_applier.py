"""One applier from the log to a store: every read-back makes the commit's calls.

A directory holding batch, single-op and (for weighted stores) weighted
records is read back three ways -- ``recover()`` of a copy, the backfill of
``Primary.attach`` and the bootstrap of a ``RemoteFollower`` over a
``ReplicationServer`` -- and every mutation call that reaches a shard of the
reading store is recorded.  Each lane must make, shard by shard, the calls
the primary's commits made: a record of two or more operations arrives as
the one ``insert_edges`` / ``delete_edges`` call that applied it, and a
batch of one as the single-edge call it is replayed as.  The edges (and
weights, and for CuckooGraph shards the counters) must equal the primary's.
"""

from __future__ import annotations

import shutil
from collections import defaultdict

import pytest

from repro import CuckooGraph, ShardedCuckooGraph, WeightedCuckooGraph
from repro.interfaces import PartitionedStore
from repro.persist import PersistentStore, recover
from repro.replicate import Follower, Primary, RemoteFollower, ReplicationServer
from repro.tiered import TieredStore

#: The store calls a record can turn into.
MUTATIONS = ("insert_edge", "delete_edge", "insert_weighted_edge",
             "insert_edges", "delete_edges")

#: Several sources with several destinations each, so every shard's group
#: of the batch holds more than one edge.
BATCH = [(u, v) for u in range(1, 7) for v in range(10, 14)]

STORES = {
    "plain": CuckooGraph,
    "weighted": WeightedCuckooGraph,
    "sharded": lambda: ShardedCuckooGraph(num_shards=2),
    "sharded-weighted": lambda: ShardedCuckooGraph(num_shards=2, weighted=True),
    "tiered": lambda: TieredStore(num_shards=2, hot_shards=1),
}


def _record_calls(shard, log: list) -> None:
    """Log the outermost mutation calls ``shard`` receives (once per shard)."""
    if "insert_edge" in vars(shard):
        return  # already spied on
    depth = 0  # a batch call that loops over single-edge calls logs once

    def spy(name, method):
        def call(*args):
            nonlocal depth
            if name.endswith("edges"):
                args = (list(args[0]),)
            if depth == 0:
                log.append((name, args))
            depth += 1
            try:
                return method(*args)
            finally:
                depth -= 1
        return call

    for name in MUTATIONS:
        if hasattr(shard, name):
            setattr(shard, name, spy(name, getattr(shard, name)))


def spy_on_shards(store) -> dict:
    """``{shard index: [(method, args), ...]}``, filled as the store is used.

    A partitioned store's shards are spied on where they are, and again as
    ``_serve`` hands them out (a tiered store replaces a shard when it
    migrates it between tiers)."""
    calls: dict = defaultdict(list)
    if not isinstance(store, PartitionedStore):
        _record_calls(store, calls[0])
        return calls
    for index, shard in enumerate(store.shards):
        _record_calls(shard, calls[index])
    serve = store._serve

    def spied_serve(index, count, mutating):
        shard = serve(index, count, mutating)
        _record_calls(shard, calls[index])
        return shard

    store._serve = spied_serve
    return calls


def as_replayed(calls: dict) -> dict:
    """The primary's calls as a replay makes them: a batch of one edge is
    logged as one operation, which is replayed as the single-edge call."""
    single = {"insert_edges": "insert_edge", "delete_edges": "delete_edge"}
    replayed = {}
    for index, log in calls.items():
        replayed[index] = [
            (single[name], args[0][0]) if name in single and len(args[0]) == 1
            else (name, args)
            for name, args in log]
    return replayed


def state(store, weighted: bool):
    edges = sorted(store.edges())
    return (edges, sorted(store.weighted_edges())) if weighted else (edges, None)


def counters(store) -> list:
    """Per-shard CuckooGraph counters (``None`` for a tiered store, whose
    shards are rebuilt by migration in an order the replay need not share)."""
    if isinstance(store, TieredStore):
        return None
    shards = store.shards if isinstance(store, PartitionedStore) else [store]
    return [shard.counters.snapshot() for shard in shards]


def read_back_by_recovery(tmp_path, primary_store, fresh):
    copy = tmp_path / "copy"
    shutil.copytree(primary_store.path, copy, ignore=shutil.ignore_patterns("lock"))
    reader = fresh()
    calls = spy_on_shards(reader)
    recovered = recover(copy, store=reader)
    recovered.close()
    return reader, calls


def read_back_by_backfill(tmp_path, primary_store, fresh):
    reader = fresh()
    calls = spy_on_shards(reader)
    with Primary(primary_store) as primary:
        follower = Follower(store=reader)
        primary.attach(follower)
        follower.close()
    return reader, calls


def read_back_by_bootstrap(tmp_path, primary_store, fresh):
    reader = fresh()
    calls = spy_on_shards(reader)
    with Primary(primary_store) as primary:
        server = ReplicationServer(primary)
        try:
            replica = RemoteFollower(server.address, store=reader)
            replica.close()
        finally:
            server.close()
    return reader, calls


LANES = {
    "recover": read_back_by_recovery,
    "backfill": read_back_by_backfill,
    "bootstrap": read_back_by_bootstrap,
}


@pytest.mark.parametrize("kind", list(STORES))
@pytest.mark.parametrize("lane", list(LANES))
def test_a_record_reaches_its_shard_as_the_commits_call(tmp_path, lane, kind):
    fresh = STORES[kind]
    weighted = kind.endswith("weighted")
    inner = fresh()
    expected = spy_on_shards(inner)
    primary_store = PersistentStore(tmp_path / "primary", store=inner,
                                    own_store=True, compact_wal_bytes=None)
    primary_store.insert_edges(BATCH)
    primary_store.insert_edge(90, 91)
    primary_store.delete_edges(BATCH[::3])
    primary_store.delete_edge(*BATCH[1])
    primary_store.insert_edges([(7, 1)])
    if weighted:
        primary_store.insert_weighted_edge(2, 11, 3)
        primary_store.insert_weighted_edge(90, 92, 2)
        primary_store.insert_edges(BATCH[:8])

    reader, calls = LANES[lane](tmp_path, primary_store, fresh)
    try:
        assert dict(calls) == as_replayed(expected)
        assert any(name.endswith("edges") for log in calls.values()
                   for name, _ in log)
        assert state(reader, weighted) == state(inner, weighted)
        assert counters(reader) == counters(inner)
    finally:
        reader.close()
        primary_store.close()
