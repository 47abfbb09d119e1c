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
CuckooGraph fed exactly the edges routed to it.  Each such test also runs on
source-sorted batches, whose long same-source runs are what
``CuckooGraph.insert_edges`` places without walking the L-CHT again.
"""

import random
from operator import itemgetter

import pytest
from hypothesis import given, settings, strategies as st

from repro import (
    CuckooGraph,
    CuckooGraphConfig,
    MultiEdgeCuckooGraph,
    ShardedCuckooGraph,
    WeightedCuckooGraph,
)
from repro.baselines import AdjacencyListGraph
from repro.core.sharded import shard_index

from .test_golden_counts import TIGHT

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


def split_batch(batch, order="random"):
    """Inserts, deletes and queries of ``batch``; ``source_sorted`` orders
    each by source (stably), so equal sources arrive as one run."""
    inserts = [(u, v) for action, u, v in batch if action == "insert"]
    deletes = [(u, v) for action, u, v in batch if action == "delete"]
    queries = [(u, v) for action, u, v in batch if action == "query"]
    if order == "source_sorted":
        for edges in (inserts, deletes, queries):
            edges.sort(key=itemgetter(0))
    return inserts, deletes, queries


def assert_modelled_identical(left, right):
    assert left.accesses == right.accesses
    assert left.counters.snapshot() == right.counters.snapshot()
    assert [shard.counters.snapshot() for shard in left.shards] == \
           [shard.counters.snapshot() for shard in right.shards]
    assert left.memory_bytes() == right.memory_bytes()
    assert left.structure_summary() == right.structure_summary()


@pytest.mark.parametrize("order", ["random", "source_sorted"])
@pytest.mark.parametrize("seed", [2, 13, 20250729])
@pytest.mark.parametrize("num_shards", [2, 5])
def test_batch_calls_match_single_operations(seed, num_shards, order):
    """Randomized batches: batching may regroup work, never change a count."""
    rng = random.Random(seed)
    batched = ShardedCuckooGraph(num_shards=num_shards)
    looped = ShardedCuckooGraph(num_shards=num_shards)
    for _ in range(10):
        inserts, deletes, queries = split_batch(
            random_batch(rng, rng.randrange(10, 150)), order)

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


@pytest.mark.parametrize("order", ["random", "source_sorted"])
@pytest.mark.parametrize("seed", [3, 17, 20260807])
@pytest.mark.parametrize("num_shards", [2, 5])
def test_each_shard_equals_a_standalone_graph(seed, num_shards, order):
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
            random_batch(rng, rng.randrange(10, 150)), order)
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


def assert_graphs_identical(left, right):
    assert left.counters.snapshot() == right.counters.snapshot()
    assert left.structure_summary() == right.structure_summary()
    assert left.memory_bytes() == right.memory_bytes()
    assert list(left.edges()) == list(right.edges())


@pytest.mark.parametrize("collapse", [False, True])
def test_tight_source_runs_match_single_operations(collapse):
    """On golden's tight configuration, S-DL parking, insert failures and
    S-DL hits all happen inside same-source runs: at the first edge of a run
    (``insert_edge``'s own path) and at later ones (the reused Part 2, in
    S-CHT mode, and in small-slot mode once a thinned chain has collapsed)."""
    rng = random.Random(29)
    config = CuckooGraphConfig(collapse_chain_to_slots=collapse, **TIGHT)
    batched, looped = CuckooGraph(config), CuckooGraph(config)
    for _ in range(6):
        edges = sorted(((rng.randrange(12), rng.randrange(400)) for _ in range(600)),
                       key=itemgetter(0))
        assert batched.insert_edges(edges) == sum(looped.insert_edge(u, v) for u, v in edges)
        assert_graphs_identical(batched, looped)
    parked = list(batched.small_denylist._entries)[:6]
    assert batched.counters.insert_failures > 0 and len(parked) == 6

    # Thin each parked source down to one stored neighbour besides its
    # parked ones, then send every parked edge again, as the first edge of
    # its run and inside one.
    # (Every lookup goes to both graphs: ``part2_of`` charges its probes.)
    for u in dict.fromkeys(u for u, _ in parked):
        stored = batched.part2_of(u).neighbours()
        assert looped.part2_of(u).neighbours() == stored
        for v in stored[1:]:
            assert batched.delete_edge(u, v) == looped.delete_edge(u, v) is True
    modes = [graph.part2_of(u).is_transformed for graph in (batched, looped) for u, _ in parked]
    assert (False in modes) == collapse
    hits = batched.counters.denylist_hits
    repeats = [edge for u, v in parked for edge in ((u, v), (u, v + 1000), (u, v))]
    assert batched.insert_edges(repeats) == sum(looped.insert_edge(u, v) for u, v in repeats)
    assert batched.counters.denylist_hits - hits == 2 * len(parked)
    assert_graphs_identical(batched, looped)
    queries = [(u, v) for u, _ in repeats for v in range(0, 1400, 7)]
    assert batched.has_edges(queries) == [looped.has_edge(u, v) for u, v in queries]
    fanout = batched.successors_many(u for u, _ in repeats)
    assert fanout == {u: looped.successors(u) for u in fanout}
    assert_graphs_identical(batched, looped)


def _weights(store):
    return sorted(store.weighted_edges())


def _edge_ids(store):
    return sorted((u, v, list(store.find_edges(u, v))) for u, v in store.edges())


@pytest.mark.parametrize("factory, payloads", [
    (WeightedCuckooGraph, _weights),
    (lambda: ShardedCuckooGraph(num_shards=4, weighted=True), _weights),
    (MultiEdgeCuckooGraph, _edge_ids),
], ids=["weighted", "sharded-weighted", "multi-edge"])
def test_payload_variants_batch_inserts_match_single_operations(factory, payloads):
    """A source-sorted batch with repeated edges: every repeat is one more
    weight (or one more edge id), exactly as one ``insert_edge`` at a time --
    a batch that placed a run's repeats itself would skip the increment."""
    rng = random.Random(31)
    edges = sorted(((rng.randrange(6), rng.randrange(20)) for _ in range(400)),
                   key=itemgetter(0))
    batched, looped = factory(), factory()
    assert batched.insert_edges(edges) == sum(looped.insert_edge(u, v) for u, v in edges)
    found = payloads(batched)
    assert found == payloads(looped)
    assert len(found) < len(edges)  # the batch did carry repeats
    assert_graphs_identical(batched, looped)
