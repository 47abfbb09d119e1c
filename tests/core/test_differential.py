"""Differential property test: CuckooGraph vs sharded vs adjacency oracle.

A random insert / query / delete operation sequence is driven, batch by
batch, through three stores at once:

* :class:`~repro.core.graph.CuckooGraph` -- the paper's structure;
* :class:`~repro.core.sharded.ShardedCuckooGraph` -- the batch-capable
  front-end (exercised through its batch APIs, so grouping/scatter bugs
  cannot hide);
* :class:`~repro.baselines.adjacency.AdjacencyListGraph` -- the trivially
  correct oracle.

After every batch the observable state of the three stores must be
identical: per-operation results, edge sets, edge counts, successor lists
and membership answers.

The second half pins the sharded store's *modelled* quantities.  A batch
call only regroups its edges per shard, keeping input order within each
shard, and shards never share state -- so the batch APIs must leave the
modelled accesses, counters and structure summaries bit-identical to
one-at-a-time calls, and each shard bit-identical to a standalone
CuckooGraph fed exactly the edges routed to it.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro import CuckooGraph, ShardedCuckooGraph, WeightedCuckooGraph
from repro.baselines import AdjacencyListGraph
from repro.core.sharded import shard_index

#: Node-id universe; small enough that inserts, deletes and queries collide.
NODE_RANGE = 60


def random_batch(rng: random.Random, size: int) -> list[tuple[str, int, int]]:
    ops = []
    for _ in range(size):
        action = rng.choice(["insert", "insert", "insert", "delete", "query"])
        ops.append((action, rng.randrange(NODE_RANGE), rng.randrange(NODE_RANGE)))
    return ops


def assert_observably_identical(cuckoo, sharded, oracle):
    """The full observable DynamicGraphStore state must agree everywhere."""
    expected = sorted(oracle.edges())
    assert sorted(cuckoo.edges()) == expected
    assert sorted(sharded.edges()) == expected
    assert cuckoo.num_edges == sharded.num_edges == oracle.num_edges
    sources = {u for u, _ in expected}
    fanned = sharded.successors_many(range(NODE_RANGE))
    for u in range(NODE_RANGE):
        reference = sorted(oracle.successors(u))
        assert sorted(cuckoo.successors(u)) == reference
        assert sorted(fanned[u]) == reference
        assert cuckoo.out_degree(u) == sharded.out_degree(u) == len(reference)
        assert cuckoo.has_node(u) == sharded.has_node(u) == (u in sources)


@pytest.mark.parametrize("seed", [1, 7, 20240515])
@pytest.mark.parametrize("num_shards", [1, 3, 8])
def test_random_operation_batches_agree(seed, num_shards):
    """Batched random workloads leave all three stores observably identical."""
    rng = random.Random(seed)
    cuckoo = CuckooGraph()
    sharded = ShardedCuckooGraph(num_shards=num_shards)
    oracle = AdjacencyListGraph()
    for _ in range(12):
        batch = random_batch(rng, rng.randrange(10, 120))
        inserts = [(u, v) for action, u, v in batch if action == "insert"]
        deletes = [(u, v) for action, u, v in batch if action == "delete"]
        queries = [(u, v) for action, u, v in batch if action == "query"]

        # The sharded store consumes whole batches; the single-instance
        # stores replay the same per-operation stream.  Results must agree
        # operation by operation, not just in aggregate.
        assert sharded.insert_edges(inserts) == \
            sum(oracle.insert_edge(u, v) for u, v in inserts)
        for u, v in inserts:
            cuckoo.insert_edge(u, v)
        sharded_deleted = sharded.delete_edges(deletes)
        oracle_deleted = 0
        for u, v in deletes:
            present = oracle.delete_edge(u, v)
            assert cuckoo.delete_edge(u, v) == present
            oracle_deleted += present
        assert sharded_deleted == oracle_deleted
        assert sharded.has_edges(queries) == [oracle.has_edge(u, v) for u, v in queries]
        for u, v in queries:
            assert cuckoo.has_edge(u, v) == oracle.has_edge(u, v)

        assert_observably_identical(cuckoo, sharded, oracle)


@settings(max_examples=30, deadline=None)
@given(
    batches=st.lists(
        st.lists(
            st.tuples(
                st.sampled_from(["insert", "delete", "query"]),
                st.integers(min_value=0, max_value=NODE_RANGE - 1),
                st.integers(min_value=0, max_value=NODE_RANGE - 1),
            ),
            max_size=60,
        ),
        max_size=6,
    ),
    num_shards=st.integers(min_value=1, max_value=6),
)
def test_hypothesis_batches_agree(batches, num_shards):
    """Hypothesis-driven version: adversarial batches, any shard count."""
    cuckoo = CuckooGraph()
    sharded = ShardedCuckooGraph(num_shards=num_shards)
    oracle = AdjacencyListGraph()
    for batch in batches:
        inserts = [(u, v) for action, u, v in batch if action == "insert"]
        deletes = [(u, v) for action, u, v in batch if action == "delete"]
        queries = [(u, v) for action, u, v in batch if action == "query"]
        oracle_inserted = sum(oracle.insert_edge(u, v) for u, v in inserts)
        assert sharded.insert_edges(inserts) == oracle_inserted
        assert sum(cuckoo.insert_edge(u, v) for u, v in inserts) == oracle_inserted
        oracle_deleted = sum(oracle.delete_edge(u, v) for u, v in deletes)
        assert sharded.delete_edges(deletes) == oracle_deleted
        assert sum(cuckoo.delete_edge(u, v) for u, v in deletes) == oracle_deleted
        expected_answers = [oracle.has_edge(u, v) for u, v in queries]
        assert sharded.has_edges(queries) == expected_answers
        assert cuckoo.has_edges(queries) == expected_answers

        expected_edges = sorted(oracle.edges())
        assert sorted(sharded.edges()) == expected_edges
        assert sorted(cuckoo.edges()) == expected_edges
        assert sharded.num_edges == cuckoo.num_edges == len(expected_edges)


# --------------------------------------------------------------------- #
# Batch calls vs single operations: modelled counts, bit for bit
# --------------------------------------------------------------------- #


def split_batch(batch):
    inserts = [(u, v) for action, u, v in batch if action == "insert"]
    deletes = [(u, v) for action, u, v in batch if action == "delete"]
    queries = [(u, v) for action, u, v in batch if action == "query"]
    return inserts, deletes, queries


def assert_modelled_identical(left, right):
    assert left.accesses == right.accesses
    assert left.counters.snapshot() == right.counters.snapshot()
    assert [shard.counters.snapshot() for shard in left.shards] == \
           [shard.counters.snapshot() for shard in right.shards]
    assert left.memory_bytes() == right.memory_bytes()
    assert left.structure_summary() == right.structure_summary()


@pytest.mark.parametrize("seed", [2, 13, 20250729])
@pytest.mark.parametrize("num_shards", [2, 5])
def test_batch_calls_match_single_operations(seed, num_shards):
    """Randomized batches: batching may regroup work, never change a count."""
    rng = random.Random(seed)
    batched = ShardedCuckooGraph(num_shards=num_shards)
    looped = ShardedCuckooGraph(num_shards=num_shards)
    for _ in range(10):
        inserts, deletes, queries = split_batch(
            random_batch(rng, rng.randrange(10, 150)))

        assert batched.insert_edges(inserts) == \
            sum(looped.insert_edge(u, v) for u, v in inserts)
        assert batched.delete_edges(deletes) == \
            sum(looped.delete_edge(u, v) for u, v in deletes)
        assert batched.has_edges(queries) == \
            [looped.has_edge(u, v) for u, v in queries]

        frontier = [rng.randrange(NODE_RANGE) for _ in range(25)]
        fanout = batched.successors_many(frontier)
        # Same key order, not just the same mapping (batch contract).
        assert list(fanout) == list(dict.fromkeys(frontier))
        assert fanout == {u: looped.successors(u) for u in fanout}

        assert sorted(batched.edges()) == sorted(looped.edges())
        assert batched.shard_sizes() == looped.shard_sizes()
        assert_modelled_identical(batched, looped)


@pytest.mark.parametrize("seed", [3, 17, 20260807])
@pytest.mark.parametrize("num_shards", [2, 5])
def test_each_shard_equals_a_standalone_graph(seed, num_shards):
    """Shards are independent: shard ``i`` is bit-identical to a lone
    CuckooGraph (seeded ``seed + i``) that saw only the edges routed to it."""
    rng = random.Random(seed)
    sharded = ShardedCuckooGraph(num_shards=num_shards)
    config = sharded.config
    standalone = [CuckooGraph(config.with_overrides(seed=config.seed + index))
                  for index in range(num_shards)]

    def owner(u):
        return standalone[shard_index(u, num_shards)]

    for _ in range(8):
        inserts, deletes, queries = split_batch(
            random_batch(rng, rng.randrange(10, 150)))
        assert sharded.insert_edges(inserts) == \
            sum(owner(u).insert_edge(u, v) for u, v in inserts)
        assert sharded.delete_edges(deletes) == \
            sum(owner(u).delete_edge(u, v) for u, v in deletes)
        assert sharded.has_edges(queries) == \
            [owner(u).has_edge(u, v) for u, v in queries]

        for shard, alone in zip(sharded.shards, standalone):
            assert sorted(shard.edges()) == sorted(alone.edges())
            assert shard.accesses == alone.accesses
            assert shard.counters.snapshot() == alone.counters.snapshot()
        assert sharded.accesses == sum(alone.accesses for alone in standalone)
        assert sharded.memory_bytes() == \
            sum(alone.memory_bytes() for alone in standalone)
    assert sharded.structure_summary()["shards"] == \
        [alone.structure_summary() for alone in standalone]


def test_weighted_batches_match_single_operations():
    """Weighted shards: a duplicate in a batch is one weight increment, a
    batch delete counts only edges whose weight reached zero -- exactly as
    the same calls made one at a time, down to every weight."""
    rng = random.Random(99)
    batched = ShardedCuckooGraph(num_shards=4, weighted=True)
    looped = ShardedCuckooGraph(num_shards=4, shard_factory=WeightedCuckooGraph)
    for _ in range(8):
        inserts, deletes, queries = split_batch(
            random_batch(rng, rng.randrange(20, 120)))
        assert batched.insert_edges(inserts) == \
            sum(looped.insert_edge(u, v) for u, v in inserts)
        assert batched.delete_edges(deletes) == \
            sum(looped.delete_edge(u, v) for u, v in deletes)
        assert batched.has_edges(queries) == \
            [looped.has_edge(u, v) for u, v in queries]
        assert sorted(batched.weighted_edges()) == sorted(looped.weighted_edges())
        assert_modelled_identical(batched, looped)
