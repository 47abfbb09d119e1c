"""Shared fixtures for the CuckooGraph reproduction test suite."""

from __future__ import annotations

import random
import threading
from collections import defaultdict

import pytest

from repro import CuckooGraph, PersistentStore, ShardedCuckooGraph, WeightedCuckooGraph
from repro.baselines import (
    AdjacencyListGraph,
    LiveGraphStore,
    SortledtonStore,
    SpruceStore,
    WindBellIndex,
)
from repro.integrations import RedisGraphStore
from repro.service import GraphClient, GraphService
from repro.tiered import TieredStore

#: Every DynamicGraphStore implementation that must honour the common contract.
#: The persistent wrapper runs ephemeral (``path=None``: a temporary directory
#: removed on close/GC) and unsynced, so the matrix exercises its logging path
#: without an fsync per operation; the durability guarantees themselves are
#: covered by ``tests/persist``.
ALL_STORE_FACTORIES = {
    "CuckooGraph": CuckooGraph,
    "WeightedCuckooGraph": WeightedCuckooGraph,
    "ShardedCuckooGraph": lambda: ShardedCuckooGraph(num_shards=4),
    # Weighted shards behind the same front-end: duplicate inserts bump a
    # weight and a delete only removes the edge at weight zero, so every
    # routed single op and batch call must keep the weighted semantics.
    "ShardedCuckooGraph-weighted": lambda: ShardedCuckooGraph(
        num_shards=4, weighted=True
    ),
    "PersistentStore": lambda: PersistentStore(
        store=CuckooGraph(), sync_on_commit=False, own_store=True
    ),
    # What a durable service wraps: one WAL segment per shard, so every
    # batch call splits its log records by shard.
    "PersistentStore-sharded": lambda: PersistentStore(
        store=ShardedCuckooGraph(num_shards=4), sync_on_commit=False,
        own_store=True,
    ),
    "AdjacencyList": AdjacencyListGraph,
    "LiveGraph": LiveGraphStore,
    "Sortledton": SortledtonStore,
    "Spruce": SpruceStore,
    "WBI": lambda: WindBellIndex(matrix_size=16),
    "MiniRedis": RedisGraphStore,
    # The hot/cold tiered front-end: half the shards start cold (miniredis),
    # mutations drive promotion/demotion mid-sequence, so the matrix
    # exercises reads and writes against both tiers and across migrations.
    "TieredStore": lambda: TieredStore(num_shards=4, hot_shards=2),
    # The cold tier is any store factory: the same front-end over the
    # reference adjacency list instead of the default miniredis.
    "TieredStore-adjacency": lambda: TieredStore(
        num_shards=4, hot_shards=2, cold=AdjacencyListGraph
    ),
    # The service front door: every operation is a request through the
    # queue and the dispatcher thread (which close() joins).
    "GraphClient": lambda: GraphClient.local(num_shards=4),
    # The north-star composition: micro-batches group-committed to a WAL
    # that fsyncs before every acknowledgement (durability="batch"), shipped
    # to one replica that serves the reads.
    "GraphClient-durable": lambda: GraphClient.durable(num_shards=4, replicas=1),
    # The service over the tiered store, as the skewed traffic preset and
    # the open-loop tiered benchmark deploy it: eight shards, two hot.
    "GraphClient-tiered": lambda: GraphClient(
        GraphService(
            TieredStore(num_shards=8, hot_shards=2), own_store=True
        ).start(),
        close_service=True,
    ),
    # A replicated service: the primary ships its WAL to two followers and
    # every read is served by one of them once it has caught up to the
    # client's last write, so each read checks what a replica applied.
    "GraphClient-replicated": lambda: GraphClient(
        GraphService(
            PersistentStore(scheme="sharded", sync_on_commit=False),
            own_store=True, replicas=2,
        ).start(),
        close_service=True,
    ),
}


#: First seed of the fuzz sweep; every run's seed is derived from it
#: deterministically, so a failure report names a directly reproducible seed.
FUZZ_BASE_SEED = 20240515


def pytest_addoption(parser):
    parser.addoption(
        "--fuzz-runs",
        action="store",
        type=int,
        default=2,
        help="seeded iterations per randomized differential fuzz test "
             "(CI uses the default on every push and a larger sweep on main)",
    )


def pytest_generate_tests(metafunc):
    """Parametrize ``fuzz_seed`` with ``--fuzz-runs`` deterministic seeds.

    The seed appears in the test id, so a red run names the exact
    reproduction: ``pytest "tests/core/test_fuzz_differential.py" -k <seed>``.
    """
    if "fuzz_seed" in metafunc.fixturenames:
        runs = metafunc.config.getoption("--fuzz-runs")
        seeds = [FUZZ_BASE_SEED + 7919 * run for run in range(max(1, runs))]
        metafunc.parametrize("fuzz_seed", seeds)


#: Threads a test must not leave running, by name: a service's dispatcher
#: and a persistent store's fsync helpers.  Both are joined by ``close()``.
OWNED_THREAD_PREFIXES = ("graph-service", "wal-sync-")


@pytest.fixture
def no_leaked_threads():
    """Fail a test that leaves a dispatcher or fsync helper thread alive.

    ``tests/core``, ``tests/service``, ``tests/persist``,
    ``tests/replicate``, ``tests/traffic``, ``tests/tiered``,
    ``tests/baselines`` and ``tests/analytics`` make it autouse (the store
    matrix holds a ``GraphClient``): it is set up first, so it looks after
    every other fixture has been torn down.  A
    leaked thread is a service or store some path forgot to close -- on a
    durable service that is also an open WAL segment and a held directory.
    """
    before = set(threading.enumerate())
    yield
    leaked = [thread.name for thread in threading.enumerate()
              if thread not in before
              and thread.name.startswith(OWNED_THREAD_PREFIXES)]
    assert not leaked, f"test left threads running: {leaked}"


@pytest.fixture
def rng() -> random.Random:
    """Deterministic random source for tests."""
    return random.Random(20240515)


@pytest.fixture
def small_edge_set(rng) -> list[tuple[int, int]]:
    """~1200 distinct random edges over 300 nodes."""
    edges = set()
    while len(edges) < 1200:
        u, v = rng.randrange(300), rng.randrange(300)
        if u != v:
            edges.add((u, v))
    shuffled = list(edges)
    rng.shuffle(shuffled)
    return shuffled


@pytest.fixture
def skewed_edge_set(rng) -> list[tuple[int, int]]:
    """Edges with one very high-degree hub, to exercise S-CHT chains."""
    edges = [(0, v) for v in range(1, 400)]
    while len(edges) < 900:
        u, v = rng.randrange(50), rng.randrange(400)
        if u != v and (u, v) not in edges:
            edges.append((u, v))
    return edges


def reference_adjacency(edges) -> dict[int, set[int]]:
    """Reference dict-of-sets adjacency for a collection of distinct edges."""
    adjacency: dict[int, set[int]] = defaultdict(set)
    for u, v in edges:
        adjacency[u].add(v)
    return adjacency


@pytest.fixture
def reference():
    """Expose the reference-model helper to tests."""
    return reference_adjacency
