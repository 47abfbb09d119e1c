"""Micro-batching behaviour: coalescing, ordering, per-request results.

The acceptance-critical tests live here: a spy store proves that requests
reach the store *only* through the batch APIs -- at least one coalesced call
per dispatch window, zero per-operation calls -- and that a client batch of
``n`` items travels as ``ceil(n / chunk)`` list requests, one store call
each (``chunk`` is ``max_batch`` for a mutation, at most ``READ_CHUNK`` for
a read).  Submissions happen before ``start()`` so the window contents are
deterministic.
"""

from __future__ import annotations

import random

import pytest

from repro import CuckooGraph, ShardedCuckooGraph, WeightedCuckooGraph
from repro.analytics import bfs, pagerank
from repro.interfaces import DynamicGraphStore
from repro.persist import PersistentStore
from repro.service import GraphClient, GraphService, Request, split_runs
from repro.service.client import READ_CHUNK


class SpyStore(DynamicGraphStore):
    """Delegating store that records every call that reaches it."""

    name = "SpyStore"

    def __init__(self, inner: DynamicGraphStore):
        self.inner = inner
        self.batch_calls: list[tuple[str, int]] = []  # (method, batch size)
        self.single_calls: list[str] = []

    # batch API: record and delegate
    def insert_edges(self, edges):
        edges = list(edges)
        self.batch_calls.append(("insert_edges", len(edges)))
        return self.inner.insert_edges(edges)

    def delete_edges(self, edges):
        edges = list(edges)
        self.batch_calls.append(("delete_edges", len(edges)))
        return self.inner.delete_edges(edges)

    def has_edges(self, edges):
        edges = list(edges)
        self.batch_calls.append(("has_edges", len(edges)))
        return self.inner.has_edges(edges)

    def successors_many(self, nodes):
        nodes = list(nodes)
        self.batch_calls.append(("successors_many", len(nodes)))
        return self.inner.successors_many(nodes)

    # single-op API: the service must never use these
    def insert_edge(self, u, v):
        self.single_calls.append("insert_edge")
        return self.inner.insert_edge(u, v)

    def delete_edge(self, u, v):
        self.single_calls.append("delete_edge")
        return self.inner.delete_edge(u, v)

    def has_edge(self, u, v):
        self.single_calls.append("has_edge")
        return self.inner.has_edge(u, v)

    def successors(self, u):
        self.single_calls.append("successors")
        return self.inner.successors(u)

    # passthrough plumbing
    def memory_bytes(self):
        return self.inner.memory_bytes()

    @property
    def num_edges(self):
        return self.inner.num_edges

    def edges(self):
        return self.inner.edges()


def calls_of(spy: SpyStore, method: str) -> list[int]:
    return [size for name, size in spy.batch_calls if name == method]


def run_shape(window):
    """``split_runs(window)`` as ``(kind, [payload, ...])`` pairs."""
    return [(kind, [r.payload for r in run]) for kind, run in split_runs(window)]


def replay(graph: dict, request: Request):
    """Apply one single request to a dict-of-sets graph; return its result."""
    if request.kind == "successors":
        return sorted(graph.get(request.payload, ()))
    u, v = request.payload
    targets = graph.setdefault(u, set())
    if request.kind == "insert":
        fresh = v not in targets
        targets.add(v)
        return fresh
    if request.kind == "delete":
        present = v in targets
        targets.discard(v)
        return present
    return v in targets


class TestCoalescing:
    def test_microbatches_reach_batch_api_with_zero_per_op_calls(self):
        """Acceptance check: >= 1 coalesced call per window, no per-op calls."""
        spy = SpyStore(ShardedCuckooGraph(num_shards=2))
        service = GraphService(spy, max_batch=256, own_store=False)
        inserts = [service.insert_edge(u, u + 1) for u in range(40)]
        probes = [service.has_edge(u, u + 1) for u in range(25)]
        fans = [service.successors(u) for u in range(10)]
        # Everything is queued; the first dispatch window coalesces it all.
        with service:
            assert [f.result(10) for f in inserts] == [True] * 40
            assert [f.result(10) for f in probes] == [True] * 25
            assert [f.result(10) for f in fans] == [[u + 1] for u in range(10)]

        # One coalesced insert call (plus its batched result pre-probe), one
        # membership call, one fan-out call -- and zero per-op store calls.
        assert calls_of(spy, "insert_edges") == [40]
        assert calls_of(spy, "has_edges") == [40, 25]  # pre-probe + queries
        assert calls_of(spy, "successors_many") == [10]
        assert spy.single_calls == []

    def test_windows_split_at_max_batch(self):
        spy = SpyStore(ShardedCuckooGraph(num_shards=2))
        service = GraphService(spy, max_batch=64, own_store=False)
        futures = [service.insert_edge(u, 1000 + u) for u in range(133)]
        with service:
            assert sum(f.result(10) for f in futures) == 133
        sizes = calls_of(spy, "insert_edges")
        assert sum(sizes) == 133
        assert all(size <= 64 for size in sizes)
        assert len(sizes) >= 3
        assert spy.single_calls == []

    def test_metrics_report_coalescing(self):
        service = GraphService(ShardedCuckooGraph(num_shards=2), max_batch=128)
        futures = [service.insert_edge(u, u + 1) for u in range(50)]
        with service:
            for future in futures:
                future.result(10)
        summary = service.metrics_summary()
        assert summary["batches"] == 1
        assert summary["max_batch_size"] == 50
        assert summary["resolved"] == 50
        assert summary["latency"]["count"] == 50


class TestOrderingSemantics:
    def test_mixed_kinds_resolve_in_submission_order(self):
        """insert -> has -> delete -> has -> insert on one edge, one window."""
        service = GraphService(ShardedCuckooGraph(num_shards=2), max_batch=16)
        futures = [
            service.insert_edge(1, 2),
            service.has_edge(1, 2),
            service.delete_edge(1, 2),
            service.has_edge(1, 2),
            service.insert_edge(1, 2),
        ]
        with service:
            assert [f.result(10) for f in futures] == [True, True, True, False, True]
        assert sorted(service.store.edges()) == [(1, 2)]

    def test_duplicate_inserts_in_one_window(self):
        service = GraphService(ShardedCuckooGraph(num_shards=2))
        futures = [service.insert_edge(7, 8) for _ in range(4)]
        with service:
            assert [f.result(10) for f in futures] == [True, False, False, False]

    def test_duplicate_deletes_in_one_window(self):
        store = ShardedCuckooGraph(num_shards=2)
        store.insert_edges([(3, 4)])
        service = GraphService(store, own_store=True)
        futures = [service.delete_edge(3, 4) for _ in range(3)]
        with service:
            assert [f.result(10) for f in futures] == [True, False, False]

    @pytest.mark.parametrize("durable", [False, True], ids=["weighted", "persistent_sharded"])
    def test_weighted_single_mutations_resolve_as_the_store_does(self, durable, tmp_path):
        """insert, insert, delete, delete of one edge on a weighted store: the
        futures resolve to the store's own per-call results -- the second
        delete is the one that removes the edge -- and reads cost one
        ``edge_weight`` per distinct edge."""
        if durable:
            store = PersistentStore(tmp_path / "w", store=ShardedCuckooGraph(
                num_shards=3, weighted=True), own_store=True, sync_on_commit=False)
        else:
            store = WeightedCuckooGraph()
        reference = WeightedCuckooGraph()
        service = GraphService(store, own_store=True, max_batch=16)
        futures = [service.insert_edge(1, 2), service.insert_edge(1, 2),
                   service.delete_edge(1, 2), service.delete_edge(1, 2)]
        expected = [reference.insert_edge(1, 2), reference.insert_edge(1, 2),
                    reference.delete_edge(1, 2), reference.delete_edge(1, 2)]
        with service:
            assert [f.result(10) for f in futures] == expected == [True, False, False, True]
            assert service.metrics_summary()["store_batch_calls"] == 4
        assert list(store.edges()) == []

    def test_split_runs_preserves_order_and_maximality(self):
        window = [Request(kind, edge) for kind, edge in (
            ("insert", (1, 2)), ("insert", (2, 3)), ("has", (1, 2)),
            ("has", (3, 4)), ("has", (2, 5)), ("insert", (1, 6)),
            ("delete", (2, 3)))]
        assert run_shape(window) == [
            ("insert", [(1, 2), (2, 3)]), ("has", [(3, 4)]),
            ("has", [(1, 2), (2, 5)]), ("insert", [(1, 6)]), ("delete", [(2, 3)])]

    def test_split_runs_keeps_every_list_request_alone(self):
        window = [Request("insert", (1, 2)),
                  Request("insert", [(3, 4), (5, 6)], single=False),
                  Request("insert", [(7, 8)], single=False),
                  Request("insert", (9, 10)), Request("insert", (11, 12)),
                  Request("has", [(1, 2)], single=False)]
        runs = [(kind, [r.single for r in run]) for kind, run in split_runs(window)]
        assert runs == [("insert", [True]), ("insert", [False]), ("insert", [False]),
                        ("insert", [True, True]), ("has", [False])]

    def test_self_loops_round_trip(self):
        service = GraphService(ShardedCuckooGraph(num_shards=2))
        with service:
            assert service.insert_edge(5, 5).result(10) is True
            assert service.has_edge(5, 5).result(10) is True
            assert service.successors(5).result(10) == [5]
            assert service.delete_edge(5, 5).result(10) is True


class TestConflictLayers:
    """The single requests between two barriers run one store call per kind
    per conflict layer, and every result still equals a sequential replay."""

    def test_distinct_sources_make_one_run_per_kind(self):
        window = [Request("insert", (0, 1)), Request("has", (1, 2)),
                  Request("successors", 2), Request("delete", (3, 4)),
                  Request("insert", (4, 5)), Request("has", (5, 6)),
                  Request("successors", 6), Request("delete", (7, 8))]
        assert run_shape(window) == [
            ("insert", [(0, 1), (4, 5)]), ("has", [(1, 2), (5, 6)]),
            ("successors", [2, 6]), ("delete", [(3, 4), (7, 8)])]

        spy = SpyStore(ShardedCuckooGraph(num_shards=2))
        spy.insert_edges([(7, 8)])
        service = GraphService(spy, max_batch=16, own_store=False)
        futures = [service.submit(r.kind, r.payload) for r in window]
        with service:
            assert [f.result(10) for f in futures] == [
                True, False, [], False, True, False, [], True]
        assert spy.batch_calls[1:] == [
            ("has_edges", 2), ("insert_edges", 2), ("has_edges", 2),
            ("successors_many", 2), ("has_edges", 2), ("delete_edges", 2)]

    def test_one_edge_keeps_its_order_among_other_sources(self):
        window = [Request("insert", (1, 2)), Request("has", (3, 4)),
                  Request("has", (1, 2)), Request("insert", (3, 4)),
                  Request("delete", (1, 2)), Request("successors", 3),
                  Request("insert", (5, 6)), Request("has", (1, 2))]
        assert run_shape(window) == [
            ("insert", [(1, 2), (5, 6)]), ("has", [(3, 4)]),
            ("has", [(1, 2)]), ("insert", [(3, 4)]),
            ("delete", [(1, 2)]), ("successors", [3]),
            ("has", [(1, 2)])]

        service = GraphService(ShardedCuckooGraph(num_shards=2), max_batch=16)
        futures = [service.submit(r.kind, r.payload) for r in window]
        with service:
            assert [f.result(10) for f in futures] == [
                True, False, True, True, True, [4], True, False]
        assert sorted(service.store.edges()) == [(3, 4), (5, 6)]

    def test_has_and_successors_on_one_source_share_a_layer(self):
        window = [Request("insert", (1, 2)), Request("has", (1, 2)),
                  Request("successors", 1), Request("has", (1, 3)),
                  Request("successors", 1)]
        assert run_shape(window) == [
            ("insert", [(1, 2)]), ("has", [(1, 2), (1, 3)]),
            ("successors", [1, 1])]

    def test_list_and_analytics_requests_stay_in_place_as_barriers(self):
        bfs_job = ("bfs", (1,), {})
        window = [Request("insert", (1, 2)), Request("analytics", bfs_job),
                  Request("insert", (2, 3)), Request("has", (5, 6)),
                  Request("has", [(2, 3)], single=False),
                  Request("insert", (5, 6)), Request("analytics", bfs_job),
                  Request("analytics", bfs_job), Request("has", (2, 3))]
        assert run_shape(window) == [
            ("insert", [(1, 2)]), ("analytics", [bfs_job]),
            ("insert", [(2, 3)]), ("has", [(5, 6)]), ("has", [[(2, 3)]]),
            ("insert", [(5, 6)]), ("analytics", [bfs_job]),
            ("analytics", [bfs_job]), ("has", [(2, 3)])]

        reference = ShardedCuckooGraph(num_shards=2)
        reference.insert_edge(1, 2)
        before = bfs(reference, 1)
        reference.insert_edge(2, 3)
        after = bfs(reference, 1)
        service = GraphService(ShardedCuckooGraph(num_shards=2), max_batch=16)
        futures = [service.insert_edge(1, 2), service.analytics("bfs", 1),
                   service.insert_edge(2, 3), service.has_edges([(2, 3)]),
                   service.analytics("bfs", 1)]
        with service:
            assert [f.result(10) for f in futures] == [
                True, before, True, [True], after]
        assert before != after

    def test_runs_in_yielded_order_replay_the_window_sequentially(self, fuzz_seed):
        """Random windows of up to 64 single requests over at most 6
        sources: running the runs in their yielded order gives every
        request the result a sequential replay in submission order does."""
        rng = random.Random(fuzz_seed)
        kinds = ("insert", "delete", "has", "successors")
        layered: dict = {}
        sequential: dict = {}
        for trial in range(300):
            sources = rng.randint(1, 6)
            window = []
            for _ in range(rng.randint(1, 64)):
                kind = rng.choice(kinds)
                u = rng.randrange(sources)
                window.append(Request(kind, u if kind == "successors"
                                      else (u, rng.randrange(4))))
            runs = list(split_runs(window))
            assert sorted(id(r) for _, run in runs for r in run) == \
                sorted(id(r) for r in window)
            got = {}
            for kind, run in runs:
                assert run and all(r.kind == kind for r in run)
                for request in run:
                    got[id(request)] = replay(layered, request)
            for index, request in enumerate(window):
                want = replay(sequential, request)
                assert got[id(request)] == want, (
                    f"seed={fuzz_seed} trial={trial} request#{index} "
                    f"{request.kind} {request.payload!r}")
            assert layered == sequential


class TestListRequests:
    """A request carries a list: one future, one run, one store call."""

    def test_client_batch_is_ceil_n_over_chunk_store_calls(self):
        spy = SpyStore(ShardedCuckooGraph(num_shards=2))
        service = GraphService(spy, max_batch=64, own_store=False)
        edges = [(u, 1000 + u) for u in range(150)]
        # A list request is a run of its own whatever window it lands in, so
        # the store calls are deterministic on a running service too.
        with service:
            client = GraphClient(service)
            assert client.insert_edges(edges) == 150
            assert calls_of(spy, "insert_edges") == [64, 64, 22]
            assert calls_of(spy, "has_edges") == []  # no pre-probe
            assert client.has_edges(edges + [(1, 1)]) == [True] * 150 + [False]
            assert client.successors_many(range(140)) == {
                u: [1000 + u] for u in range(140)}
            assert client.delete_edges(edges) == 150
        # Mutations travel max_batch items a request, reads READ_CHUNK.
        assert READ_CHUNK == 8
        assert calls_of(spy, "has_edges") == [8] * 18 + [7]
        assert calls_of(spy, "successors_many") == [8] * 17 + [4]
        assert calls_of(spy, "delete_edges") == [64, 64, 22]
        assert spy.single_calls == []
        summary = service.metrics_summary()
        assert summary["submitted"] == {"insert": 3, "has": 19,
                                        "successors": 18, "delete": 3}
        assert summary["resolved"] == summary["submitted_total"] == 43
        assert summary["items_submitted"] == summary["items_resolved"] \
            == 150 + 151 + 140 + 150
        assert summary["batches"] == summary["store_batch_calls"] == 43
        assert summary["max_batch_size"] == 64
        assert summary["latency"]["count"] == 43

    def test_read_chunk_never_exceeds_max_batch(self):
        spy = SpyStore(ShardedCuckooGraph(num_shards=2))
        with GraphService(spy, max_batch=3, own_store=False) as service:
            client = GraphClient(service)
            assert client.insert_edges([(u, u + 1) for u in range(7)]) == 7
            assert client.has_edges([(u, u + 1) for u in range(7)]) == [True] * 7
            assert client.successors_many(range(7)) == {
                u: [u + 1] for u in range(7)}
        assert calls_of(spy, "insert_edges") == [3, 3, 1]
        assert calls_of(spy, "has_edges") == [3, 3, 1]
        assert calls_of(spy, "successors_many") == [3, 3, 1]

    def test_empty_client_batches_submit_nothing(self):
        with GraphService(ShardedCuckooGraph(num_shards=2)) as service:
            client = GraphClient(service)
            assert client.insert_edges([]) == 0
            assert client.delete_edges([]) == 0
            assert client.has_edges([]) == []
            assert client.successors_many([]) == {}
        assert service.metrics_summary()["submitted_total"] == 0

    def test_list_and_lone_single_mutations_make_one_store_call(self):
        spy = SpyStore(ShardedCuckooGraph(num_shards=2))
        service = GraphService(spy, max_batch=16, own_store=False)
        futures = [
            service.insert_edges([(1, 2), (1, 3), (1, 2)]),  # list: own run
            service.has_edge(1, 2),
            service.insert_edge(1, 2),                       # lone single
            service.has_edge(9, 9),
            service.delete_edge(1, 3),                       # lone single
            service.has_edge(9, 9),
            service.delete_edges([(1, 2), (7, 7)]),
        ]
        with service:
            assert [f.result(10) for f in futures] == [
                2, True, False, False, True, False, 1]
        # Between the two list requests the three queries share conflict
        # layer 0, the insert of (1, 2) follows the query on source 1, and
        # the delete of (1, 3) follows both: one has_edges call of three.
        assert calls_of(spy, "insert_edges") == [3, 1]
        assert calls_of(spy, "delete_edges") == [1, 2]
        assert calls_of(spy, "has_edges") == [3]  # the three queries only
        assert spy.single_calls == []
        assert service.metrics_summary()["store_batch_calls"] == 5

    def test_run_of_several_single_mutations_still_makes_two(self):
        spy = SpyStore(ShardedCuckooGraph(num_shards=2))
        service = GraphService(spy, max_batch=16, own_store=False)
        futures = [service.insert_edge(1, 2), service.insert_edge(1, 2),
                   service.insert_edge(3, 4)]
        with service:
            assert [f.result(10) for f in futures] == [True, False, True]
        assert spy.batch_calls == [("has_edges", 3), ("insert_edges", 3)]
        assert service.metrics_summary()["store_batch_calls"] == 2

    @pytest.mark.parametrize("max_batch", [1, 3, 4, 64])
    def test_results_equal_the_per_request_path_on_duplicates(self, max_batch):
        """Duplicates within a chunk and across chunks: the list path's
        counts and answers equal what one request per item resolves to."""
        edges = [(u % 5, u % 3) for u in range(23)]          # heavy repetition
        doomed = [(u % 4, u % 3) for u in range(17)] + [(8, 8)]
        nodes = [u % 6 for u in range(14)]

        def per_request(service):
            inserted = [service.insert_edge(u, v) for u, v in edges]
            probes = [service.has_edge(u, v) for u, v in doomed]
            fans = [service.successors(u) for u in dict.fromkeys(nodes)]
            deleted = [service.delete_edge(u, v) for u, v in doomed]
            return (sum(f.result(10) for f in inserted),
                    [f.result(10) for f in probes],
                    dict(zip(dict.fromkeys(nodes), (f.result(10) for f in fans))),
                    sum(f.result(10) for f in deleted))

        def batched(service):
            client = GraphClient(service)
            return (client.insert_edges(edges), client.has_edges(doomed),
                    client.successors_many(nodes), client.delete_edges(doomed))

        outcomes, leftovers = [], []
        for drive in (per_request, batched):
            with GraphService(ShardedCuckooGraph(num_shards=2),
                              max_batch=max_batch) as service:
                outcomes.append(drive(service))
                leftovers.append(sorted(service.store.edges()))
        assert outcomes[0] == outcomes[1]
        assert leftovers[0] == leftovers[1]

    def test_fifo_between_a_list_and_a_single_request_on_one_edge(self):
        service = GraphService(ShardedCuckooGraph(num_shards=2), max_batch=16)
        futures = [
            service.insert_edges([(1, 2), (3, 4)]),
            service.delete_edge(1, 2),
            service.has_edges([(1, 2), (3, 4)]),
            service.insert_edge(1, 2),
            service.delete_edges([(1, 2), (3, 4), (5, 6)]),
            service.has_edge(3, 4),
        ]
        with service:
            assert [f.result(10) for f in futures] == [
                2, True, [False, True], True, 2, False]
        assert service.store.num_edges == 0

    def test_cancelling_a_list_future_skips_the_whole_request(self):
        spy = SpyStore(ShardedCuckooGraph(num_shards=2))
        service = GraphService(spy, max_batch=16, own_store=False)
        skipped = service.insert_edges([(1, 2), (3, 4), (5, 6)])
        kept = service.insert_edges([(7, 8)])
        assert skipped.cancel()
        with service:
            assert kept.result(10) == 1
        assert calls_of(spy, "insert_edges") == [1]
        assert sorted(spy.edges()) == [(7, 8)]
        summary = service.metrics_summary()
        assert (summary["cancelled"], summary["resolved"]) == (1, 1)
        # The ledger stays in requests; the item totals show what was dropped.
        assert (summary["items_submitted"], summary["items_resolved"]) == (4, 1)

    def test_oversized_and_empty_list_requests_are_refused(self):
        """One call, one future, one store call: the service refuses what
        does not fit a store call instead of splitting it (GraphClient
        splits)."""
        spy = SpyStore(ShardedCuckooGraph(num_shards=2))
        with GraphService(spy, max_batch=4, own_store=False) as service:
            for submit in (service.insert_edges, service.delete_edges,
                           service.has_edges):
                with pytest.raises(ValueError, match="max_batch"):
                    submit([(u, u) for u in range(5)])
                with pytest.raises(ValueError, match="max_batch"):
                    submit([])
            with pytest.raises(ValueError, match="max_batch"):
                service.successors_many(range(5))
            assert service.insert_edges((u, u) for u in range(4)).result(10) == 4
        assert service.metrics_summary()["submitted_total"] == 1
        assert spy.batch_calls == [("insert_edges", 4)]

    def test_store_failure_reaches_the_list_future(self):
        class Poisoned(SpyStore):
            def insert_edges(self, edges):
                raise RuntimeError("poisoned batch")

        service = GraphService(Poisoned(ShardedCuckooGraph(num_shards=2)),
                               own_store=False)
        doomed = service.insert_edges([(1, 2), (3, 4)])
        with service:
            with pytest.raises(RuntimeError, match="poisoned batch"):
                doomed.result(10)
            assert service.has_edges([(1, 2)]).result(10) == [False]
        summary = service.metrics_summary()
        assert (summary["failed"], summary["resolved"]) == (1, 1)


class TestAnalyticsDispatch:
    @pytest.fixture
    def loaded_service(self):
        store = ShardedCuckooGraph(num_shards=2)
        service = GraphService(store, own_store=True)
        edges = [(u, u + 1) for u in range(1, 30)] + [(1, 10), (10, 20)]
        with service:
            futures = [service.insert_edge(u, v) for u, v in edges]
            for future in futures:
                future.result(10)
            yield service, store

    def test_bfs_matches_direct_kernel(self, loaded_service):
        service, store = loaded_service
        assert service.analytics("bfs", 1).result(10) == bfs(store, 1)

    def test_pagerank_matches_direct_kernel(self, loaded_service):
        service, store = loaded_service
        served = service.analytics("pagerank", iterations=10).result(10)
        assert served == pagerank(store, iterations=10)

    def test_unknown_analytics_task_rejected_at_submit(self, loaded_service):
        service, _ = loaded_service
        with pytest.raises(ValueError, match="unknown analytics task"):
            service.analytics("mincut", 1)

    def test_unknown_kind_rejected_at_submit(self, loaded_service):
        service, _ = loaded_service
        with pytest.raises(ValueError, match="unknown request kind"):
            service.submit("compact", None)

    def test_analytics_exception_routed_to_its_future_only(self, loaded_service):
        service, store = loaded_service
        bad = service.analytics("sssp", 1, weight=lambda u, v: 1 / 0)
        good = service.has_edge(1, 2)
        with pytest.raises(ZeroDivisionError):
            bad.result(10)
        assert good.result(10) is True  # the service keeps serving

    def test_plain_store_works_behind_the_service(self):
        """The front door runs over any DynamicGraphStore, not just sharded."""
        service = GraphService(CuckooGraph(), own_store=True)
        with service:
            assert service.insert_edge(1, 2).result(10) is True
            assert service.successors(1).result(10) == [2]
