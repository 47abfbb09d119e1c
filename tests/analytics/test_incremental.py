"""Unit + parity suite for the incremental analytics replica.

The contract under test (see ``repro/analytics/incremental.py``): at any
point where the change feed has been folded in, every delta-maintained
kernel's output is **byte-identical** -- exact ints, bit-exact floats, no
tolerance -- to the library kernel recomputed from scratch through a fresh
:class:`TraversalEngine` on the same replica store.  Alongside the
parity sweeps, this file pins the cache mechanics the speedup rests on:
one batched refetch per refresh covering exactly the dirty sources, clean
nodes served without any store call, and true (old, new) diffs feeding the
kernels even when shipped ops were no-ops.
"""

import random

import pytest

from repro import CuckooGraph
from repro.analytics import (
    AnalyticsFollower,
    CachedTraversalEngine,
    MaterializationCache,
    TraversalEngine,
    bfs,
    dijkstra,
    materialize_adjacency,
    pagerank,
    top_degree_nodes,
    total_degrees,
    weakly_connected_components,
)
from repro.persist import STORE_SCHEMES, PersistentStore
from repro.replicate import Primary

ITERATIONS = 20  # plenty of sweeps for dirt to propagate, fast enough to fuzz

SCHEMES = ["cuckoo", "sharded"]


def make_pair(scheme, **follower_kwargs):
    store = PersistentStore(None, scheme=scheme, sync_on_commit=False,
                            compact_wal_bytes=None)
    primary = Primary(store)
    follower = AnalyticsFollower(scheme=scheme, iterations=ITERATIONS,
                                 **follower_kwargs)
    primary.attach(follower)
    return store, primary, follower


def assert_kernel_parity(follower, context):
    """Every maintained kernel equals the library kernel, bit for bit."""
    replica = follower.store
    assert follower.pagerank() == pagerank(
        replica, iterations=ITERATIONS, engine=TraversalEngine(replica)
    ), f"{context}: pagerank"
    assert follower.components() == weakly_connected_components(
        replica, engine=TraversalEngine(replica)
    ), f"{context}: components"
    assert follower.total_degrees() == dict(total_degrees(
        replica, engine=TraversalEngine(replica)
    )), f"{context}: degrees"
    assert follower.top_degree_nodes(5) == top_degree_nodes(
        replica, 5, engine=TraversalEngine(replica)
    ), f"{context}: top-k"


class SpyStore(CuckooGraph):
    """Counts the batched successor fetches the cache issues."""

    def __init__(self):
        super().__init__()
        self.successors_many_calls = 0
        self.nodes_fetched = 0

    def successors_many(self, nodes):
        nodes = list(nodes)
        self.successors_many_calls += 1
        self.nodes_fetched += len(nodes)
        return super().successors_many(nodes)


class TestEdgeSetKernels:
    def test_pagerank_is_scheme_independent(self):
        """Same edge set, different stores: bit-identical score vectors."""
        edges = [(1, 2), (2, 3), (3, 1), (1, 4), (5, 1), (6, 7)]
        results = []
        for scheme in SCHEMES:
            store = STORE_SCHEMES[scheme]()
            store.insert_edges(edges)
            results.append(pagerank(store, iterations=ITERATIONS))
        assert results[0] == results[1]

    def test_pagerank_total_mass_with_dangling(self):
        store = CuckooGraph()
        store.insert_edges([(1, 2), (2, 3)])  # 3 is dangling
        ranks = pagerank(store, iterations=50)
        assert set(ranks) == {1, 2, 3}
        assert sum(ranks.values()) == pytest.approx(1.0)

    def test_weak_components_form_and_content(self):
        store = CuckooGraph()
        store.insert_edges([(4, 2), (2, 9), (7, 5), (11, 7)])
        assert weakly_connected_components(store) == [[2, 4, 9], [5, 7, 11]]

    def test_empty_store(self):
        store = CuckooGraph()
        assert pagerank(store) == {}
        assert weakly_connected_components(store) == []


class TestMaterializationCache:
    def test_prime_is_one_batch_and_serve_is_zero(self):
        spy = SpyStore()
        spy.insert_edges([(1, 2), (1, 3), (2, 3), (4, 5)])
        cache = MaterializationCache()
        cache.prime(spy, TraversalEngine(spy))
        calls_after_prime = spy.successors_many_calls
        served, fetched = cache.serve(spy, [1, 2, 4, 99])
        assert fetched == 0
        assert spy.successors_many_calls == calls_after_prime
        assert served == {1: [2, 3], 2: [3], 4: [5], 99: []}
        assert cache.hits == 4 and cache.misses == 0

    def test_refresh_fetches_exactly_the_dirty_sources_once(self):
        spy = SpyStore()
        spy.insert_edges([(1, 2), (2, 3), (4, 5)])
        cache = MaterializationCache()
        cache.prime(spy, TraversalEngine(spy))
        spy.insert_edge(1, 7)
        spy.delete_edge(4, 5)
        cache.mark_dirty(1)
        cache.mark_dirty(4)
        before = spy.successors_many_calls
        diffs = cache.refresh(spy, TraversalEngine(spy))
        assert spy.successors_many_calls == before + 1
        assert spy.nodes_fetched >= 2
        assert set(diffs) == {1, 4}
        old, new = diffs[1]
        assert set(old) == {2} and set(new) == {2, 7}
        assert diffs[4] == ([5], [])
        assert cache.dirty_count == 0
        # Source 4 lost its last edge: gone from the adjacency entirely.
        assert 4 not in cache.adjacency()

    def test_noop_dirt_produces_no_diff(self):
        """A duplicate insert dirties the source but must not reach kernels."""
        store = CuckooGraph()
        store.insert_edges([(1, 2)])
        cache = MaterializationCache()
        cache.prime(store, TraversalEngine(store))
        store.insert_edge(1, 2)  # no-op on a distinct-edge store
        cache.mark_dirty(1)
        assert cache.refresh(store, TraversalEngine(store)) == {}

    def test_serve_fetches_dirty_without_healing(self):
        """Mid-epoch reads see fresh data; the (old, new) diff stays intact."""
        store = CuckooGraph()
        store.insert_edges([(1, 2)])
        cache = MaterializationCache()
        cache.prime(store, TraversalEngine(store))
        store.insert_edge(1, 9)
        cache.mark_dirty(1)
        served, fetched = cache.serve(store, [1])
        assert fetched == 1
        assert set(served[1]) == {2, 9}          # truth, not the stale cache
        assert cache.dirty_count == 1            # not healed
        diffs = cache.refresh(store, TraversalEngine(store))
        assert set(diffs[1][0]) == {2}           # old view preserved

    def test_mark_dirty_before_prime_is_ignored(self):
        cache = MaterializationCache()
        cache.mark_dirty(3)
        assert cache.dirty_count == 0
        with pytest.raises(RuntimeError, match="prime"):
            cache.refresh(CuckooGraph(), TraversalEngine(CuckooGraph()))


@pytest.mark.parametrize("scheme", SCHEMES)
class TestKernelParityUnderMutation:
    def test_parity_at_every_probe(self, scheme):
        """Dense random churn: every kernel bit-equal to recompute, each round."""
        store, primary, follower = make_pair(scheme)
        rng = random.Random(99)
        edges = set()
        try:
            for round_no in range(25):
                inserts, deletes = [], []
                for _ in range(rng.randrange(1, 10)):
                    u, v = rng.randrange(20), rng.randrange(20)
                    if u == v:
                        continue
                    if edges and rng.random() < 0.35:
                        u, v = rng.choice(sorted(edges))
                        deletes.append((u, v))
                        edges.discard((u, v))
                    else:
                        inserts.append((u, v))
                        edges.add((u, v))
                if inserts:
                    store.insert_edges(inserts)
                if deletes:
                    store.delete_edges(deletes)
                primary.sync_and_pump()
                follower.wait_for(primary.commit_index)
                assert_kernel_parity(follower, f"{scheme} round={round_no}")
            stats = follower.analytics_stats()
            assert stats["decisions"]["primed"] >= 1
            assert stats["cache"]["refreshes"] >= 1
        finally:
            follower.close()
            primary.close()
            store.close()

    def test_localized_mutations_take_the_incremental_path(self, scheme):
        """Component-confined edits: PageRank repairs incrementally, bit-exact."""
        store, primary, follower = make_pair(scheme)
        try:
            edges = []
            for component in range(6):
                offset = component * 10
                edges += [(offset + i, offset + (i + 1) % 10) for i in range(10)]
            store.insert_edges(edges)
            primary.sync_and_pump()
            follower.wait_for(primary.commit_index)
            follower.refresh_analytics()
            rng = random.Random(5)
            for round_no in range(8):
                offset = rng.randrange(6) * 10
                store.insert_edges([(offset + rng.randrange(10),
                                     offset + rng.randrange(10))
                                    for _ in range(3)])
                primary.sync_and_pump()
                follower.wait_for(primary.commit_index)
                assert_kernel_parity(follower, f"{scheme} local round={round_no}")
            decisions = follower.analytics_stats()["kernels"]["pagerank"]
            assert decisions["incremental"] >= 1
        finally:
            follower.close()
            primary.close()
            store.close()


class TestStructuralEdgeCases:
    def test_delete_splits_a_component(self):
        store, primary, follower = make_pair("cuckoo")
        try:
            # A 20-node chain plus a far-away pair: one deleted edge is well
            # under the recompute fraction, so the split must be handled by
            # the bounded recompute, not a full rebuild.
            store.insert_edges([(i, i + 1) for i in range(1, 20)])
            store.insert_edges([(100, 101)])
            primary.sync_and_pump()
            follower.wait_for(primary.commit_index)
            assert follower.components() == [list(range(1, 21)), [100, 101]]
            store.delete_edges([(10, 11)])
            primary.sync_and_pump()
            follower.wait_for(primary.commit_index)
            assert follower.components() == [
                list(range(1, 11)), list(range(11, 21)), [100, 101]]
            assert_kernel_parity(follower, "split")
            stats = follower.analytics_stats()
            assert stats["components_nodes_recomputed"] == 20  # not 22
        finally:
            follower.close()
            primary.close()
            store.close()

    def test_node_churn_keeps_parity(self):
        """Appearing/vanishing nodes change 1/n everywhere: full PR rebuild."""
        store, primary, follower = make_pair("cuckoo")
        try:
            store.insert_edges([(1, 2), (2, 1)])
            primary.sync_and_pump()
            follower.wait_for(primary.commit_index)
            assert_kernel_parity(follower, "churn/initial")
            store.insert_edges([(3, 1)])  # node 3 appears
            primary.sync_and_pump()
            follower.wait_for(primary.commit_index)
            assert_kernel_parity(follower, "churn/appear")
            store.delete_edges([(3, 1)])  # node 3 vanishes again
            primary.sync_and_pump()
            follower.wait_for(primary.commit_index)
            assert set(follower.pagerank()) == {1, 2}
            assert_kernel_parity(follower, "churn/vanish")
        finally:
            follower.close()
            primary.close()
            store.close()

    def test_dangling_transitions_keep_parity(self):
        """A node gaining/losing its last out-edge moves the dangling mass."""
        store, primary, follower = make_pair("cuckoo")
        try:
            store.insert_edges([(1, 2), (2, 3)])  # 3 dangling
            primary.sync_and_pump()
            follower.wait_for(primary.commit_index)
            assert_kernel_parity(follower, "dangling/initial")
            store.insert_edges([(3, 1)])          # 3 stops dangling
            primary.sync_and_pump()
            follower.wait_for(primary.commit_index)
            assert_kernel_parity(follower, "dangling/closed-cycle")
            store.delete_edges([(3, 1)])          # dangling again
            primary.sync_and_pump()
            follower.wait_for(primary.commit_index)
            assert_kernel_parity(follower, "dangling/reopened")
        finally:
            follower.close()
            primary.close()
            store.close()

    def test_tiny_recompute_fraction_forces_fallback_and_stays_exact(self):
        store, primary, follower = make_pair("cuckoo",
                                             recompute_fraction=0.0001)
        try:
            store.insert_edges([(i, i + 1) for i in range(30)])
            primary.sync_and_pump()
            follower.wait_for(primary.commit_index)
            follower.refresh_analytics()
            store.insert_edges([(5, 20), (7, 25)])
            primary.sync_and_pump()
            follower.wait_for(primary.commit_index)
            assert_kernel_parity(follower, "fallback")
            decisions = follower.analytics_stats()
            assert decisions["decisions"]["recompute"] >= 1 or \
                decisions["kernels"]["pagerank"]["recompute"] >= 2
        finally:
            follower.close()
            primary.close()
            store.close()


class TestCachedTraversalEngine:
    def test_clean_cache_serves_bfs_sssp_without_store_calls(self):
        spy = SpyStore()
        spy.insert_edges([(1, 2), (2, 3), (1, 4), (4, 5), (3, 5)])
        cache = MaterializationCache()
        cache.prime(spy, TraversalEngine(spy))
        fresh_bfs = bfs(spy, 1, engine=TraversalEngine(spy))
        fresh_sssp = dijkstra(spy, 1, engine=TraversalEngine(spy))
        before = spy.successors_many_calls
        cached = CachedTraversalEngine(spy, cache)
        assert bfs(spy, 1, engine=cached) == fresh_bfs
        assert dijkstra(spy, 1, engine=cached) == fresh_sssp
        assert spy.successors_many_calls == before
        assert cached.expand_calls == 0
        assert cached.cache_served > 0

    def test_materialize_adjacency_matches_cache_view(self):
        store = CuckooGraph()
        store.insert_edges([(1, 2), (2, 3), (1, 3)])
        cache = MaterializationCache()
        cache.prime(store, TraversalEngine(store))
        assert cache.adjacency() == materialize_adjacency(store)


class TestFollowerLifecycle:
    def test_kill_and_reattach_invalidates_and_reconverges(self):
        """Backfill bypasses the op hook; re-attach must drop cached state."""
        store = PersistentStore(None, scheme="cuckoo", sync_on_commit=False,
                                compact_wal_bytes=None)
        primary = Primary(store)
        follower = AnalyticsFollower(scheme="cuckoo", iterations=ITERATIONS)
        primary.attach(follower)
        try:
            store.insert_edges([(1, 2), (2, 3)])
            primary.sync_and_pump()
            follower.wait_for(primary.commit_index)
            assert_kernel_parity(follower, "pre-kill")
            follower.close()

            store.insert_edges([(3, 4), (9, 10)])
            follower = AnalyticsFollower(scheme="cuckoo", iterations=ITERATIONS)
            primary.attach(follower)  # backfill writes to the store directly
            follower.wait_for(primary.commit_index)
            assert_kernel_parity(follower, "post-reattach")
            assert set(follower.total_degrees()) == {1, 2, 3, 4, 9, 10}
        finally:
            follower.close()
            primary.close()
            store.close()

    def test_validation(self):
        with pytest.raises(ValueError, match="iterations"):
            AnalyticsFollower(scheme="cuckoo", iterations=0)
        with pytest.raises(ValueError, match="damping"):
            AnalyticsFollower(scheme="cuckoo", damping=1.5)
        with pytest.raises(ValueError, match="recompute_fraction"):
            AnalyticsFollower(scheme="cuckoo", recompute_fraction=0.0)
