"""Tests for the sharded batch-capable CuckooGraph front-end.

Contract conformance is covered by the cross-store suite in
``tests/baselines/test_store_contract.py`` (the sharded store is registered
in ``ALL_STORE_FACTORIES``); this module checks the sharding-specific
guarantees: routing stability, batch-vs-loop equivalence, the
partition/group seam (on the tiered store too), aggregation of counters and
memory, the close lifecycle, ``spawn_empty`` and the weighted pass-throughs.
"""

import inspect
import threading

import pytest

from repro import CuckooGraph, ShardedCuckooGraph, WeightedCuckooGraph
from repro.core import CuckooGraphConfig
from repro.core.errors import ConfigurationError, StoreClosedError
from repro.core.sharded import shard_index
from repro.tiered import TieredStore


class TestRouting:
    def test_same_node_always_lands_on_same_shard(self, rng):
        graph = ShardedCuckooGraph(num_shards=4)
        for _ in range(500):
            u = rng.randrange(10**6)
            assert graph.shard_of(u) == graph.shard_of(u) == shard_index(u, 4)

    def test_routing_is_stable_across_instances(self):
        first = ShardedCuckooGraph(num_shards=8)
        second = ShardedCuckooGraph(num_shards=8)
        assert [first.shard_of(u) for u in range(1000)] == \
               [second.shard_of(u) for u in range(1000)]

    def test_all_out_edges_of_a_node_share_a_shard(self, small_edge_set):
        graph = ShardedCuckooGraph(num_shards=4)
        graph.insert_edges(small_edge_set)
        for shard_id, shard in enumerate(graph.shards):
            for u, _ in shard.edges():
                assert graph.shard_of(u) == shard_id

    def test_shards_spread_load(self, small_edge_set):
        graph = ShardedCuckooGraph(num_shards=4)
        graph.insert_edges(small_edge_set)
        sizes = graph.shard_sizes()
        assert sum(sizes) == len(small_edge_set)
        assert all(size > 0 for size in sizes)

    def test_single_shard_matches_plain_cuckoograph(self, small_edge_set):
        sharded = ShardedCuckooGraph(num_shards=1)
        plain = CuckooGraph()
        for u, v in small_edge_set:
            assert sharded.insert_edge(u, v) == plain.insert_edge(u, v)
        assert sorted(sharded.edges()) == sorted(plain.edges())
        assert sharded.num_edges == plain.num_edges

    def test_invalid_shard_count_rejected(self):
        with pytest.raises(ConfigurationError):
            ShardedCuckooGraph(num_shards=0)

    def test_shards_use_distinct_hash_seeds(self):
        graph = ShardedCuckooGraph(num_shards=4, config=CuckooGraphConfig(seed=7))
        assert sorted(shard.config.seed for shard in graph.shards) == [7, 8, 9, 10]


class TestBatchEquivalence:
    """Each batch API must observably equal its one-at-a-time loop."""

    def test_insert_edges_matches_loop(self, small_edge_set):
        batched = ShardedCuckooGraph(num_shards=4)
        looped = ShardedCuckooGraph(num_shards=4)
        inserted = batched.insert_edges(small_edge_set)
        assert inserted == sum(looped.insert_edge(u, v) for u, v in small_edge_set)
        assert sorted(batched.edges()) == sorted(looped.edges())
        # Re-inserting the same batch finds nothing new.
        assert batched.insert_edges(small_edge_set[:100]) == 0

    def test_delete_edges_matches_loop(self, small_edge_set):
        batched = ShardedCuckooGraph(num_shards=4)
        looped = ShardedCuckooGraph(num_shards=4)
        batched.insert_edges(small_edge_set)
        looped.insert_edges(small_edge_set)
        victims = small_edge_set[:500] + [(10**9, 10**9)]
        assert batched.delete_edges(victims) == \
               sum(looped.delete_edge(u, v) for u, v in victims) == 500
        assert sorted(batched.edges()) == sorted(looped.edges())

    def test_has_edges_preserves_input_order(self, small_edge_set):
        graph = ShardedCuckooGraph(num_shards=4)
        graph.insert_edges(small_edge_set[:600])
        probe = small_edge_set + [(10**9, 1), (10**9, 2)]
        answers = graph.has_edges(probe)
        assert answers == [graph.has_edge(u, v) for u, v in probe]
        assert answers[:600] == [True] * 600
        assert answers[-2:] == [False, False]

    def test_successors_many_matches_per_node_queries(self, small_edge_set, reference):
        graph = ShardedCuckooGraph(num_shards=4)
        graph.insert_edges(small_edge_set)
        adjacency = reference(small_edge_set)
        nodes = list(adjacency) + [10**9]
        fanned = graph.successors_many(nodes)
        assert set(fanned) == set(nodes)
        for u in nodes:
            assert sorted(fanned[u]) == sorted(adjacency.get(u, set()))
        # Duplicate requests collapse to one answer per distinct node.
        assert list(graph.successors_many([1, 1, 1])) == [1]

    def test_batch_costs_no_more_accesses_than_loop(self, small_edge_set):
        batched = ShardedCuckooGraph(num_shards=4)
        looped = ShardedCuckooGraph(num_shards=4)
        batched.insert_edges(small_edge_set)
        looped.insert_edges(small_edge_set)
        batched.reset_accesses()
        looped.reset_accesses()
        batched.has_edges(small_edge_set)
        for u, v in small_edge_set:
            looped.has_edge(u, v)
        assert batched.accesses == looped.accesses


class TestAggregation:
    def test_counters_aggregate_across_shards(self, small_edge_set):
        graph = ShardedCuckooGraph(num_shards=4)
        graph.insert_edges(small_edge_set)
        graph.has_edges(small_edge_set)
        graph.delete_edges(small_edge_set[:100])
        totals = graph.counters
        assert totals.edges_inserted == len(small_edge_set)
        assert totals.edges_queried == len(small_edge_set)
        assert totals.edges_deleted == 100
        per_shard = [shard.counters for shard in graph.shards]
        assert totals.bucket_probes == sum(c.bucket_probes for c in per_shard)
        assert totals.insert_attempts == sum(c.insert_attempts for c in per_shard)

    def test_memory_aggregates_across_shards(self, small_edge_set):
        graph = ShardedCuckooGraph(num_shards=4)
        graph.insert_edges(small_edge_set)
        assert graph.memory_bytes() == \
               sum(shard.memory_bytes() for shard in graph.shards)
        assert graph.memory_bytes() > 0

    def test_accesses_aggregate_and_reset(self, small_edge_set):
        graph = ShardedCuckooGraph(num_shards=4)
        graph.insert_edges(small_edge_set)
        assert graph.accesses == sum(shard.accesses for shard in graph.shards)
        assert graph.accesses > 0
        graph.reset_accesses()
        assert graph.accesses == 0
        assert all(shard.accesses == 0 for shard in graph.shards)

    def test_structure_summary_reports_every_shard(self, small_edge_set):
        graph = ShardedCuckooGraph(num_shards=4)
        graph.insert_edges(small_edge_set)
        summary = graph.structure_summary()
        assert summary["num_shards"] == 4
        assert summary["num_edges"] == len(small_edge_set)
        assert len(summary["shards"]) == 4
        assert summary["shard_edge_counts"] == graph.shard_sizes()

    def test_num_source_nodes_aggregates(self, small_edge_set, reference):
        graph = ShardedCuckooGraph(num_shards=4)
        graph.insert_edges(small_edge_set)
        assert graph.num_source_nodes == len(reference(small_edge_set))


class TestSerialOnly:
    """One execution path: the executor knobs are gone, not ignored."""

    def test_executor_argument_is_rejected(self):
        # A caller still passing the removed knob must fail loudly rather
        # than silently getting a different execution model.
        with pytest.raises(TypeError):
            ShardedCuckooGraph(num_shards=2, **{"executor": "serial"})

    def test_constructor_has_no_execution_knobs(self):
        parameters = inspect.signature(ShardedCuckooGraph).parameters
        assert list(parameters) == ["num_shards", "config", "weighted", "shard_factory"]

    def test_batches_run_on_the_calling_thread(self, small_edge_set):
        graph = ShardedCuckooGraph(num_shards=4)
        before = set(threading.enumerate())
        graph.insert_edges(small_edge_set)
        graph.has_edges(small_edge_set)
        graph.successors_many(u for u, _ in small_edge_set)
        graph.delete_edges(small_edge_set[:300])
        graph.close()
        assert set(threading.enumerate()) == before


def _observed(store):
    """What a batch may change: shape, tier telemetry and modelled costs."""
    counters = store.counters
    return (store.structure_summary(), store.accesses,
            None if counters is None else counters.snapshot())


@pytest.mark.parametrize("make", [
    lambda: ShardedCuckooGraph(num_shards=4),
    lambda: TieredStore(num_shards=4, hot_shards=1),
], ids=["sharded", "tiered"])
class TestGroupSeam:
    """``partition_edges`` + ``insert_groups``/``delete_groups`` *are* the
    batch mutations; wrappers that route once rely on the equivalence."""

    def test_partition_groups_by_owner_in_first_seen_order(self, make, small_edge_set):
        graph = make()
        groups = graph.partition_edges(small_edge_set)
        first_seen = list(dict.fromkeys(shard_index(u, 4) for u, _ in small_edge_set))
        assert list(groups) == first_seen
        for index, group in groups.items():
            assert group == [edge for edge in small_edge_set
                             if graph.shard_of(edge[0]) == index]

    def test_partition_touches_no_shard(self, make, small_edge_set):
        graph = make()
        graph.partition_edges(small_edge_set)
        assert _observed(graph) == _observed(make())

    def test_insert_groups_is_insert_edges(self, make, small_edge_set):
        seam = make()
        batch = make()
        assert seam.insert_groups(seam.partition_edges(small_edge_set)) == \
            batch.insert_edges(small_edge_set) == len(small_edge_set)
        assert _observed(seam) == _observed(batch)

    def test_delete_groups_is_delete_edges(self, make, small_edge_set):
        seam = make()
        batch = make()
        seam.insert_edges(small_edge_set)
        batch.insert_edges(small_edge_set)
        victims = small_edge_set[::3] + [(10**9, 1)]
        assert seam.delete_groups(seam.partition_edges(victims)) == \
            batch.delete_edges(victims) == len(small_edge_set[::3])
        assert sorted(seam.edges()) == sorted(batch.edges())
        assert _observed(seam) == _observed(batch)

    def test_empty_batches_are_free(self, make):
        graph = make()
        assert graph.partition_edges([]) == {}
        assert graph.insert_edges([]) == 0
        assert graph.delete_edges([]) == 0
        assert graph.has_edges([]) == []
        assert graph.successors_many([]) == {}
        assert _observed(graph) == _observed(make())

    def test_batches_accept_one_shot_iterators(self, make, small_edge_set):
        graph = make()
        assert graph.insert_edges(iter(small_edge_set)) == len(small_edge_set)
        assert graph.has_edges(edge for edge in small_edge_set) == \
            [True] * len(small_edge_set)
        nodes = [u for u, _ in small_edge_set[:20]]
        assert list(graph.successors_many(iter(nodes))) == list(dict.fromkeys(nodes))
        assert graph.delete_edges(iter(small_edge_set[:10])) == 10


class TestCloseLifecycle:
    """``close`` is idempotent; post-close batch calls fail loudly, single
    operations keep working so a closed store can still be inspected."""

    def test_close_is_idempotent(self, small_edge_set):
        graph = ShardedCuckooGraph(num_shards=4)
        graph.insert_edges(small_edge_set[:50])
        graph.close()
        graph.close()  # second close must be a no-op, not an error
        assert graph.closed

    def test_context_manager_closes(self, small_edge_set):
        with ShardedCuckooGraph(num_shards=4) as graph:
            graph.insert_edges(small_edge_set[:50])
            assert not graph.closed
        assert graph.closed

    def test_batch_calls_after_close_raise(self, small_edge_set):
        graph = ShardedCuckooGraph(num_shards=4)
        graph.insert_edges(small_edge_set[:50])
        graph.close()
        with pytest.raises(StoreClosedError):
            graph.insert_edges([(1, 2)])
        with pytest.raises(StoreClosedError):
            graph.delete_edges([(1, 2)])
        with pytest.raises(StoreClosedError):
            graph.has_edges([(1, 2)])
        with pytest.raises(StoreClosedError):
            graph.successors_many([1])
        with pytest.raises(StoreClosedError):
            graph.insert_groups(graph.partition_edges([(1, 2)]))
        with pytest.raises(StoreClosedError):
            graph.delete_groups(graph.partition_edges([(1, 2)]))

    def test_refused_batches_leave_the_store_untouched(self, small_edge_set):
        graph = ShardedCuckooGraph(num_shards=4)
        graph.insert_edges(small_edge_set[:50])
        graph.close()
        summary, accesses = graph.structure_summary(), graph.accesses
        for call, argument in ((graph.insert_edges, small_edge_set[50:]),
                               (graph.delete_edges, small_edge_set[:50]),
                               (graph.has_edges, small_edge_set)):
            with pytest.raises(StoreClosedError):
                call(argument)
        assert graph.structure_summary() == summary
        assert graph.accesses == accesses

    def test_single_operations_survive_close(self, small_edge_set):
        graph = ShardedCuckooGraph(num_shards=4)
        graph.insert_edges(small_edge_set[:50])
        graph.close()
        u, v = small_edge_set[0]
        assert graph.has_edge(u, v)
        assert v in graph.successors(u)
        assert graph.num_edges == 50
        assert graph.insert_edge(10**9, 1) is True

    def test_close_before_any_batch_is_safe(self):
        graph = ShardedCuckooGraph(num_shards=2)
        graph.close()
        assert graph.closed
        assert graph.num_edges == 0
        with pytest.raises(StoreClosedError):
            graph.insert_edges([(1, 2)])


class TestSingleOperations:
    def test_single_ops_agree_with_a_batch_built_store(self, small_edge_set):
        batched = ShardedCuckooGraph(num_shards=4)
        looped = ShardedCuckooGraph(num_shards=4)
        batched.insert_edges(small_edge_set)
        for u, v in small_edge_set:
            looped.insert_edge(u, v)
        for u, v in small_edge_set[:80] + [(10**9, 1)]:
            assert batched.has_edge(u, v) == looped.has_edge(u, v)
            assert batched.out_degree(u) == looped.out_degree(u)
            assert batched.successors(u) == looped.successors(u)
            assert batched.has_node(u) == looped.has_node(u)
        assert sorted(batched.source_nodes()) == sorted(looped.source_nodes())
        assert batched.num_source_nodes == looped.num_source_nodes
        assert batched.shard_sizes() == looped.shard_sizes()


class TestSpawnEmpty:
    def test_spawn_empty_keeps_shape_and_shares_nothing(self):
        graph = ShardedCuckooGraph(num_shards=3, config=CuckooGraphConfig(seed=11))
        graph.insert_edge(1, 2)
        fresh = graph.spawn_empty()
        assert fresh.num_shards == 3
        assert fresh.config == graph.config
        assert [s.config.seed for s in fresh.shards] == [11, 12, 13]
        assert fresh.num_edges == 0 and not fresh.closed
        assert fresh.insert_edge(1, 2) is True
        assert graph.num_edges == 1
        assert fresh.shards[0] is not graph.shards[0]

    def test_spawn_empty_keeps_weighted_shards(self):
        for graph in (ShardedCuckooGraph(num_shards=2, weighted=True),
                      ShardedCuckooGraph(num_shards=2,
                                         shard_factory=WeightedCuckooGraph)):
            fresh = graph.spawn_empty()
            assert fresh.weighted is True
            assert all(isinstance(s, WeightedCuckooGraph) for s in fresh.shards)

    def test_spawn_empty_does_not_carry_a_custom_factory(self):
        built = []

        def factory(config):
            built.append(config.seed)
            return CuckooGraph(config)

        graph = ShardedCuckooGraph(num_shards=2, shard_factory=factory)
        graph.spawn_empty()
        assert built == [1, 2]  # only the original's two shards


class TestWeightedSharding:
    def test_weighted_shards_count_duplicates(self):
        graph = ShardedCuckooGraph(num_shards=4, weighted=True)
        assert graph.insert_weighted_edge(1, 2) == 1
        assert graph.insert_weighted_edge(1, 2) == 2
        assert graph.edge_weight(1, 2) == 2
        assert graph.delete_edge(1, 2) is False  # decrements to weight 1
        assert graph.has_edge(1, 2)
        assert graph.delete_edge(1, 2) is True
        assert not graph.has_edge(1, 2)

    def test_weighted_edges_iterates_all_shards(self):
        graph = ShardedCuckooGraph(num_shards=4, weighted=True)
        for u in range(50):
            graph.insert_weighted_edge(u, u + 1)
            graph.insert_weighted_edge(u, u + 1)
        triples = sorted(graph.weighted_edges())
        assert triples == [(u, u + 1, 2) for u in range(50)]

    def test_weighted_batches_count_weights(self):
        graph = ShardedCuckooGraph(num_shards=4, weighted=True)
        edges = [(u, u + 1) for u in range(40)]
        assert graph.insert_edges(edges + edges[:10]) == 40
        assert graph.edge_weight(0, 1) == 2 and graph.edge_weight(39, 40) == 1
        # The first delete of a weight-2 edge only decrements it.
        assert graph.delete_edges(edges[:20]) == 10
        assert graph.has_edges(edges[:20]) == [True] * 10 + [False] * 10
        assert sorted(graph.weighted_edges()) == \
            [(u, u + 1, 1) for u in range(10)] + [(u, u + 1, 1) for u in range(20, 40)]

    def test_custom_weighted_factory_enables_weighted_operations(self):
        graph = ShardedCuckooGraph(num_shards=2, shard_factory=WeightedCuckooGraph)
        assert graph.weighted is True
        assert graph.insert_weighted_edge(1, 2) == 1
        assert graph.insert_weighted_edge(1, 2) == 2

    def test_weighted_operations_rejected_on_basic_shards(self):
        graph = ShardedCuckooGraph(num_shards=2)
        with pytest.raises(TypeError):
            graph.insert_weighted_edge(1, 2)
        with pytest.raises(TypeError):
            graph.edge_weight(1, 2)
        with pytest.raises(TypeError):
            list(graph.weighted_edges())
