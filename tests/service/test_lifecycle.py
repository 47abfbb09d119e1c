"""Lifecycle and backpressure: start/close, queue policies, error routing."""

from __future__ import annotations

import threading
import time

import pytest

from repro import ShardedCuckooGraph
from repro.interfaces import DynamicGraphStore
from repro.service import (
    BoundedRequestQueue,
    GraphClient,
    GraphService,
    QueueFullError,
    Request,
    ServiceClosedError,
    gather_window,
)

#: Generous timeout for anything that waits on a thread.
WAIT_S = 10


class TestLifecycle:
    def test_context_manager_starts_and_closes(self):
        with GraphService() as service:
            assert service.running
            assert service.insert_edge(1, 2).result(WAIT_S) is True
        assert service.closed
        assert not service.running

    def test_close_is_idempotent(self):
        service = GraphService().start()
        service.close()
        service.close()
        assert service.closed

    def test_submit_after_close_raises(self):
        with GraphService() as service:
            pass
        with pytest.raises(ServiceClosedError):
            service.insert_edge(1, 2)
        with pytest.raises(ServiceClosedError):
            service.submit("has", (1, 2))

    def test_start_after_close_raises(self):
        service = GraphService().start()
        service.close()
        with pytest.raises(ServiceClosedError):
            service.start()

    def test_close_drains_inflight_requests(self):
        """Everything queued before close() must still resolve."""
        service = GraphService(max_batch=16).start()
        futures = [service.insert_edge(u, u + 1) for u in range(300)]
        service.close()  # drains, then joins the dispatcher
        assert sum(future.result(WAIT_S) for future in futures) == 300
        assert service.store.num_edges == 300
        summary = service.metrics_summary()
        assert summary["resolved"] == 300
        assert summary["failed"] == summary["cancelled"] == 0

    def test_close_without_start_cancels_pending(self):
        service = GraphService()
        futures = [service.insert_edge(u, u + 1) for u in range(5)]
        service.close()
        assert all(future.cancelled() for future in futures)
        assert service.metrics_summary()["cancelled"] == 5

    def test_close_closes_owned_store(self):
        service = GraphService().start()  # service built its own sharded store
        store = service.store
        service.close()
        assert isinstance(store, ShardedCuckooGraph) and store.closed

    def test_close_leaves_caller_store_open(self):
        store = ShardedCuckooGraph(num_shards=2)
        with GraphService(store) as service:
            service.insert_edge(1, 2).result(WAIT_S)
        assert not store.closed
        assert store.insert_edges([(2, 3)]) == 1  # still fully usable
        store.close()

    def test_local_client_takes_no_executor(self):
        # The store has one execution path; a caller still asking for a
        # thread or process executor fails before any thread starts.
        before = threading.active_count()
        with pytest.raises(TypeError):
            GraphClient.local(num_shards=2, **{"executor": "threads"})
        assert threading.active_count() == before
        with GraphClient.local(num_shards=2) as client:
            assert client.insert_edges([(1, 2), (2, 3)]) == 2
            assert client.has_edges([(1, 2), (3, 1)]) == [True, False]

    def test_idle_dispatcher_sleeps_untimed_and_close_wakes_it(self):
        """No idle heartbeat: an idle dispatcher parks in one untimed wait
        (it used to wake every 50 ms to look for a shutdown) and ``close``
        -- which notifies every queue waiter -- ends it promptly."""
        service = GraphService()
        not_empty = service._queue._not_empty
        waits: list = []
        wait = not_empty.wait

        def spying_wait(timeout=None):
            waits.append(timeout)
            return wait(timeout)

        not_empty.wait = spying_wait
        service.start()
        time.sleep(0.25)  # five of the old heartbeats
        assert waits == [None]
        assert service.insert_edge(1, 2).result(WAIT_S) is True
        time.sleep(0.1)
        assert waits == [None, None]  # served, then parked again
        began = time.monotonic()
        service.close()
        assert time.monotonic() - began < 1.0
        assert not service.running

    def test_submissions_before_start_are_served_after_start(self):
        service = GraphService()
        future = service.insert_edge(1, 2)
        assert not future.done()
        with service:
            assert future.result(WAIT_S) is True

    def test_a_resolved_future_is_already_counted(self):
        """A caller woken by its result reads metrics that include it: list
        and analytics requests are runs of their own, each counted before
        its future resolves."""
        service = GraphService()
        seen = []
        futures = [
            service.insert_edges([(1, 2)]),
            service.analytics("pagerank"),
            service.insert_edges([(2, 3)]),
            service.analytics("wcc"),
        ]
        for future in futures:
            future.add_done_callback(
                lambda _: seen.append(service.metrics_summary()["resolved"]))
        with service:
            for future in futures:
                future.result(WAIT_S)
        assert seen == [1, 2, 3, 4]


class TestBackpressure:
    def test_reject_policy_raises_queue_full(self):
        service = GraphService(queue_capacity=8, policy="reject")
        futures = [service.insert_edge(u, u + 1) for u in range(8)]
        with pytest.raises(QueueFullError):
            service.insert_edge(99, 100)
        assert service.metrics_summary()["rejected"] == 1
        with service:  # the 8 accepted requests still complete
            assert sum(f.result(WAIT_S) for f in futures) == 8

    def test_block_policy_waits_for_space(self):
        service = GraphService(queue_capacity=4, policy="block")
        for u in range(4):
            service.insert_edge(u, u + 1)
        unblocked = threading.Event()

        def blocked_submit():
            service.insert_edge(50, 51)  # must block: queue is full
            unblocked.set()

        thread = threading.Thread(target=blocked_submit, daemon=True)
        thread.start()
        assert not unblocked.wait(0.15), "submit should block on a full queue"
        service.start()  # dispatcher drains the queue -> space appears
        assert unblocked.wait(WAIT_S), "submit must unblock once space frees"
        thread.join(WAIT_S)
        service.close()
        assert service.store.num_edges == 5

    def test_blocked_submitter_is_released_by_close(self):
        service = GraphService(queue_capacity=2, policy="block")
        service.insert_edge(1, 2)
        service.insert_edge(2, 3)
        outcome: list = []

        def blocked_submit():
            try:
                service.insert_edge(3, 4)
            except ServiceClosedError as exc:
                outcome.append(exc)

        thread = threading.Thread(target=blocked_submit, daemon=True)
        thread.start()
        time.sleep(0.05)  # let it reach the blocking wait
        service.close()
        thread.join(WAIT_S)
        assert len(outcome) == 1 and isinstance(outcome[0], ServiceClosedError)

    def test_queue_validation(self):
        with pytest.raises(ValueError):
            BoundedRequestQueue(capacity=0)
        with pytest.raises(ValueError):
            BoundedRequestQueue(policy="drop-oldest")
        with pytest.raises(ValueError):
            GraphService(policy="spill")
        with pytest.raises(ValueError):
            GraphService(max_batch=0)
        with pytest.raises(ValueError):
            GraphService(max_delay_s=-1)

    def test_block_policy_with_timeout_queue_level(self):
        queue = BoundedRequestQueue(capacity=1, policy="block")
        queue.put("a")
        with pytest.raises(QueueFullError):
            queue.put("b", timeout=0.05)


class TestQueueWindows:
    def test_get_many_takes_a_fifo_window_and_leaves_the_rest(self):
        queue = BoundedRequestQueue(capacity=8)
        for item in "abcde":
            queue.put(item)
        assert queue.get_many(3) == ["a", "b", "c"]
        assert queue.get_many(8) == ["d", "e"]
        assert queue.get_many(8, timeout=0) == []

    def test_close_wakes_a_blocked_get_many_and_drains_first(self):
        queue = BoundedRequestQueue(capacity=8)
        got: list = []
        thread = threading.Thread(target=lambda: got.append(queue.get_many(4)),
                                  daemon=True)
        thread.start()
        time.sleep(0.05)  # let it park in the untimed wait
        assert queue.close() == []
        thread.join(WAIT_S)
        assert got == [[]]
        drained = BoundedRequestQueue(capacity=8)
        drained.put("a")
        assert drained.close() == ["a"]
        assert drained.get_many(4) == ["a"] and drained.get_many(4) == []

    @pytest.mark.parametrize("timeout", [None, WAIT_S], ids=["untimed", "timed"])
    def test_wake_ends_a_blocked_get_many_and_an_open_queue_goes_on(self, timeout):
        queue = BoundedRequestQueue(capacity=8)
        got: list = []
        thread = threading.Thread(target=lambda: got.append(queue.get_many(4, timeout)),
                                  daemon=True)
        thread.start()
        time.sleep(0.05)  # let it park
        queue.wake()
        thread.join(WAIT_S)
        assert got == [[]] and not queue.closed
        # A wake-up nobody waited for costs the next call one empty return; a
        # call that returns items uses up the wake-ups before it.
        queue.wake()
        assert queue.get_many(4) == []
        queue.wake()
        queue.put("a")
        assert queue.get_many(4) == ["a"]
        assert queue.get_many(4, timeout=0.01) == []  # the timeout, not a wake

    def test_a_wake_while_a_window_fills_calls_back_and_the_filling_goes_on(self):
        queue = BoundedRequestQueue(capacity=8)
        queue.put(Request("has", (1, 2)))
        woken: list = []

        def straggler():
            time.sleep(0.05)
            queue.wake()
            time.sleep(0.05)
            queue.put(Request("has", (3, 4)))

        thread = threading.Thread(target=straggler, daemon=True)
        thread.start()
        window = gather_window(queue, 2, WAIT_S, lambda: woken.append(len(queue)))
        thread.join(WAIT_S)
        assert [request.payload for request in window] == [(1, 2), (3, 4)]
        assert woken == [0]

    def test_one_get_many_releases_every_producer_it_made_room_for(self):
        queue = BoundedRequestQueue(capacity=2, policy="block")
        queue.put("a")
        queue.put("b")
        threads = [threading.Thread(target=queue.put, args=(item,), daemon=True)
                   for item in "cd"]
        for thread in threads:
            thread.start()
        time.sleep(0.05)  # both are blocked on the full queue
        assert queue.get_many(2) == ["a", "b"]
        for thread in threads:
            thread.join(WAIT_S)
        assert sorted(queue.get_many(2)) == ["c", "d"]


class TestTimeWindow:
    def test_delay_window_coalesces_trickled_requests(self):
        """With max_delay_s > 0 the window waits for stragglers."""
        service = GraphService(ShardedCuckooGraph(num_shards=2),
                               max_batch=64, max_delay_s=0.25).start()
        # Trickle requests in from another thread slower than dispatch,
        # faster than the window: they should land in very few batches.
        def trickle():
            for u in range(12):
                service.insert_edge(u, u + 100)
                time.sleep(0.005)

        thread = threading.Thread(target=trickle, daemon=True)
        thread.start()
        thread.join(WAIT_S)
        service.close()
        summary = service.metrics_summary()
        assert summary["resolved"] == 12
        assert summary["batches"] <= 4  # without the window this would be ~12
        assert summary["max_batch_size"] > 1


class FailingStore(DynamicGraphStore):
    """Store whose batch membership probe explodes on a poisoned edge."""

    name = "FailingStore"

    def __init__(self):
        self.inner = ShardedCuckooGraph(num_shards=2)

    def has_edges(self, edges):
        edges = list(edges)
        if (666, 666) in edges:
            raise RuntimeError("poisoned probe")
        return self.inner.has_edges(edges)

    def insert_edges(self, edges):
        return self.inner.insert_edges(edges)

    def delete_edges(self, edges):
        return self.inner.delete_edges(edges)

    def successors_many(self, nodes):
        return self.inner.successors_many(nodes)

    def insert_edge(self, u, v):
        return self.inner.insert_edge(u, v)

    def delete_edge(self, u, v):
        return self.inner.delete_edge(u, v)

    def has_edge(self, u, v):
        return self.inner.has_edge(u, v)

    def successors(self, u):
        return self.inner.successors(u)

    def memory_bytes(self):
        return self.inner.memory_bytes()

    @property
    def num_edges(self):
        return self.inner.num_edges

    def edges(self):
        return self.inner.edges()


class TestExceptionRouting:
    def test_store_failure_reaches_every_future_in_the_run(self):
        service = GraphService(FailingStore(), own_store=False, max_batch=16)
        doomed = [service.has_edge(666, 666), service.has_edge(1, 2)]
        with service:
            for future in doomed:
                with pytest.raises(RuntimeError, match="poisoned probe"):
                    future.result(WAIT_S)
            # The dispatcher survives the failed run and keeps serving.
            assert service.insert_edge(1, 2).result(WAIT_S) is True
            assert service.has_edge(1, 2).result(WAIT_S) is True
        summary = service.metrics_summary()
        assert summary["failed"] == 2
        assert summary["resolved"] == 2

    def test_latency_summary_shape(self):
        with GraphService() as service:
            futures = [service.insert_edge(u, u + 1) for u in range(64)]
            for future in futures:
                future.result(WAIT_S)
            latency = service.metrics_summary()["latency"]
        assert latency["count"] == 64
        assert 0 <= latency["p50_s"] <= latency["p95_s"] <= latency["p99_s"] \
            <= latency["max_s"]
        assert latency["mean_s"] > 0
