"""Contract tests: every store implementation against the reference model.

These are the cross-scheme guarantees the benchmark harness relies on: all
stores agree on the semantics of insert / query / delete / successors, which
is what makes the paper's scheme-versus-scheme comparisons meaningful.
"""

import random
from collections import defaultdict

import pytest
from hypothesis import given, settings, strategies as st

from repro.interfaces import DynamicGraphStore

from ..conftest import ALL_STORE_FACTORIES


@pytest.fixture(params=sorted(ALL_STORE_FACTORIES), ids=sorted(ALL_STORE_FACTORIES))
def store(request) -> DynamicGraphStore:
    built = ALL_STORE_FACTORIES[request.param]()
    yield built
    built.close()


class TestContract:
    def test_empty_store(self, store):
        assert store.num_edges == 0
        assert not store.has_edge(1, 2)
        assert store.successors(1) == []
        assert list(store.edges()) == []

    def test_insert_query_roundtrip(self, store, small_edge_set):
        for u, v in small_edge_set:
            assert store.insert_edge(u, v) is True
        assert store.num_edges == len(small_edge_set)
        for u, v in small_edge_set:
            assert store.has_edge(u, v)
        assert not store.has_edge(10**9, 1)

    def test_duplicate_inserts_do_not_double_count(self, store, small_edge_set):
        for u, v in small_edge_set:
            store.insert_edge(u, v)
        for u, v in small_edge_set[:100]:
            assert store.insert_edge(u, v) is False
        assert store.num_edges == len(small_edge_set)

    def test_spawn_empty_yields_a_fresh_store_of_the_same_scheme(self, store):
        store.insert_edge(1, 2)
        fresh = store.spawn_empty()
        assert fresh is not store
        assert fresh.num_edges == 0
        assert not fresh.has_edge(1, 2)
        assert fresh.insert_edge(1, 2) is True  # usable, independent state
        assert store.num_edges == 1
        fresh.close()  # a spawned persistent store holds a directory

    def test_successors_match_reference(self, store, small_edge_set, reference):
        for u, v in small_edge_set:
            store.insert_edge(u, v)
        adjacency = reference(small_edge_set)
        for u, expected in adjacency.items():
            assert sorted(store.successors(u)) == sorted(expected)
            assert store.out_degree(u) == len(expected)

    def test_edges_iteration(self, store, small_edge_set):
        for u, v in small_edge_set:
            store.insert_edge(u, v)
        assert sorted(store.edges()) == sorted(small_edge_set)

    def test_deletions(self, store, small_edge_set):
        for u, v in small_edge_set:
            store.insert_edge(u, v)
        victims = small_edge_set[: len(small_edge_set) // 2]
        for u, v in victims:
            assert store.delete_edge(u, v) is True
        for u, v in victims[:50]:
            assert not store.has_edge(u, v)
            assert store.delete_edge(u, v) is False
        for u, v in small_edge_set[len(small_edge_set) // 2:][:50]:
            assert store.has_edge(u, v)
        assert store.num_edges == len(small_edge_set) - len(victims)

    def test_memory_bytes_positive_and_monotone_with_content(self, store, small_edge_set):
        for u, v in small_edge_set[:10]:
            store.insert_edge(u, v)
        small_footprint = store.memory_bytes()
        for u, v in small_edge_set[10:]:
            store.insert_edge(u, v)
        assert small_footprint > 0
        assert store.memory_bytes() >= small_footprint

    def test_skewed_degrees(self, store, skewed_edge_set, reference):
        for u, v in skewed_edge_set:
            store.insert_edge(u, v)
        adjacency = reference(skewed_edge_set)
        assert sorted(store.successors(0)) == sorted(adjacency[0])
        assert store.out_degree(0) == len(adjacency[0])

    def test_bulk_helpers(self, store, small_edge_set):
        assert store.insert_edges(small_edge_set) == len(small_edge_set)
        assert store.delete_edges(small_edge_set[:20]) == 20

    def test_lifecycle(self, store):
        """``with`` closes the store, ``closed`` flips, a second ``close()``
        is a no-op and ``structure_summary()`` is a dict.  What a closed
        store still accepts is each scheme's own (pinned in its tests)."""
        store.insert_edge(1, 2)
        assert isinstance(store.structure_summary(), dict)
        assert not store.closed
        with store as entered:
            assert entered is store
        assert store.closed
        store.close()
        assert store.closed


# The weighted CuckooGraph (alone or as the shards of the sharded front-end)
# deliberately has different deletion semantics (delete decrements the weight
# and only removes the edge at zero), so the mixed-operation dedup property
# below applies to every *distinct-edge* store.
_DEDUP_SEMANTICS_STORES = sorted(
    set(ALL_STORE_FACTORIES) - {"WeightedCuckooGraph", "ShardedCuckooGraph-weighted"}
)


@settings(max_examples=25, deadline=None)
@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(["insert", "delete", "query"]),
            st.integers(min_value=0, max_value=40),
            st.integers(min_value=0, max_value=40),
        ),
        max_size=200,
    ),
    name=st.sampled_from(_DEDUP_SEMANTICS_STORES),
)
def test_any_store_matches_reference_model(ops, name):
    """Property: every store implements identical dedup edge-set semantics."""
    store = ALL_STORE_FACTORIES[name]()
    try:
        model: dict[int, set[int]] = defaultdict(set)
        for action, u, v in ops:
            if action == "insert":
                assert store.insert_edge(u, v) is (v not in model[u])
                model[u].add(v)
            elif action == "delete":
                assert store.delete_edge(u, v) is (v in model[u])
                model[u].discard(v)
            else:
                assert store.has_edge(u, v) is (v in model[u])
        expected = sorted((u, v) for u, vs in model.items() for v in vs)
        assert sorted(store.edges()) == expected
        assert store.num_edges == len(expected)
    finally:
        store.close()


def test_deletion_order_independence(small_edge_set):
    """Deleting in a different order than insertion leaves every store empty."""
    rng = random.Random(11)
    for name, factory in ALL_STORE_FACTORIES.items():
        store = factory()
        try:
            for u, v in small_edge_set:
                store.insert_edge(u, v)
            order = list(small_edge_set)
            rng.shuffle(order)
            for u, v in order:
                assert store.delete_edge(u, v), name
            assert store.num_edges == 0, name
            assert list(store.edges()) == [], name
        finally:
            store.close()
