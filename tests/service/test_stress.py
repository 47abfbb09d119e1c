"""Concurrency stress: many client threads hammering one GraphService.

Two traffic shapes:

* **Disjoint keyspaces** -- each thread owns a key range and replays a
  seeded mixed insert/delete/query stream, pipelining futures.  Because the
  service preserves per-thread submission order and the keyspaces never
  interact, each thread's results must match its own sequential oracle, and
  the final store state must equal the union of the per-thread oracles.
* **Overlapping keyspace** -- every thread slams inserts into the same small
  key range.  Interleaving is nondeterministic, but conservation laws are
  not: each distinct edge's "newly inserted" result must be handed out
  exactly once across all threads, and the final edge set must be exactly
  the union of everything submitted.  Over weighted shards, each edge's
  final weight must equal how often it was submitted.

Both shapes assert the accounting invariant the ISSUE names: no request
future is dropped (every future resolves) and none is double-resolved
(resolved + failed + cancelled == submitted; a double set_result would also
crash the dispatcher with InvalidStateError and surface as unresolved
futures).
"""

from __future__ import annotations

import random
import sys
import threading
from collections import Counter

from repro import ShardedCuckooGraph
from repro.service import GraphService

from ..core.test_fuzz_differential import Oracle

THREADS = 4
OPS_PER_THREAD = 300
WAIT_S = 30


def _mixed_stream(seed: int, low: int, high: int):
    rng = random.Random(seed)
    ops = []
    for _ in range(OPS_PER_THREAD):
        action = rng.choice(("insert", "insert", "insert", "delete", "query"))
        ops.append((action, rng.randrange(low, high), rng.randrange(low, high)))
    return ops


def test_disjoint_keyspaces_match_per_thread_oracles():
    store = ShardedCuckooGraph(num_shards=4)
    service = GraphService(store, max_batch=128, queue_capacity=256,
                           policy="block").start()
    barrier = threading.Barrier(THREADS)
    failures: list[str] = []
    oracles = [Oracle() for _ in range(THREADS)]
    resolved_counts = [0] * THREADS

    def client(index: int):
        low = index * 10_000
        ops = _mixed_stream(seed=1234 + index, low=low, high=low + 40)
        barrier.wait(WAIT_S)
        submitted = []
        for action, u, v in ops:
            if action == "insert":
                submitted.append(service.insert_edge(u, v))
            elif action == "delete":
                submitted.append(service.delete_edge(u, v))
            else:
                submitted.append(service.has_edge(u, v))
        oracle = oracles[index]
        expected = [oracle.apply(op) for op in ops]
        for position, (future, want) in enumerate(zip(submitted, expected)):
            got = future.result(WAIT_S)
            if got != want:
                failures.append(
                    f"thread {index} op#{position} {ops[position]}: "
                    f"got {got!r}, oracle says {want!r}"
                )
            resolved_counts[index] += 1

    threads = [threading.Thread(target=client, args=(index,))
               for index in range(THREADS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(WAIT_S)
    service.close()

    assert failures == []
    assert resolved_counts == [OPS_PER_THREAD] * THREADS

    merged = sorted(edge for oracle in oracles for edge in oracle.edges())
    assert sorted(store.edges()) == merged
    assert store.num_edges == len(merged)

    summary = service.metrics_summary()
    assert summary["submitted_total"] == THREADS * OPS_PER_THREAD
    assert summary["resolved"] == THREADS * OPS_PER_THREAD
    assert summary["failed"] == summary["cancelled"] == summary["rejected"] == 0


def test_overlapping_keyspace_conserves_insert_results():
    store = ShardedCuckooGraph(num_shards=4)
    service = GraphService(store, max_batch=64, queue_capacity=128,
                           policy="block").start()
    barrier = threading.Barrier(THREADS)
    new_counts = [0] * THREADS
    submitted_edges: list[set] = [set() for _ in range(THREADS)]

    def client(index: int):
        rng = random.Random(777 + index)
        barrier.wait(WAIT_S)
        futures = []
        for _ in range(OPS_PER_THREAD):
            u, v = rng.randrange(25), rng.randrange(25)
            submitted_edges[index].add((u, v))
            futures.append(service.insert_edge(u, v))
        new_counts[index] = sum(future.result(WAIT_S) for future in futures)

    threads = [threading.Thread(target=client, args=(index,))
               for index in range(THREADS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(WAIT_S)
    service.close()

    union = set().union(*submitted_edges)
    # Conservation: "newly inserted" is granted exactly once per distinct
    # edge, no matter which thread's request won the race.
    assert sum(new_counts) == len(union)
    assert sorted(store.edges()) == sorted(union)

    summary = service.metrics_summary()
    assert summary["submitted_total"] == THREADS * OPS_PER_THREAD
    assert summary["resolved"] == THREADS * OPS_PER_THREAD
    assert summary["failed"] == summary["cancelled"] == 0


def test_overlapping_keyspace_conserves_weights():
    """Weighted shards under the same race: every duplicate insert must land
    as one weight increment, so each edge's final weight is the number of
    times any thread submitted it -- coalescing a window may not merge or
    drop a duplicate."""
    store = ShardedCuckooGraph(num_shards=4, weighted=True)
    service = GraphService(store, max_batch=64, queue_capacity=128,
                           policy="block").start()
    barrier = threading.Barrier(THREADS)
    new_counts = [0] * THREADS
    submitted: list[Counter] = [Counter() for _ in range(THREADS)]

    def client(index: int):
        rng = random.Random(911 + index)
        barrier.wait(WAIT_S)
        futures = []
        for _ in range(OPS_PER_THREAD):
            u, v = rng.randrange(25), rng.randrange(25)
            submitted[index][(u, v)] += 1
            futures.append(service.insert_edge(u, v))
        new_counts[index] = sum(future.result(WAIT_S) for future in futures)

    threads = [threading.Thread(target=client, args=(index,))
               for index in range(THREADS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(WAIT_S)
    service.close()

    total = sum(submitted, Counter())
    assert sum(new_counts) == len(total)
    assert {(u, v): w for u, v, w in store.weighted_edges()} == dict(total)
    summary = service.metrics_summary()
    assert summary["resolved"] == THREADS * OPS_PER_THREAD
    assert summary["failed"] == summary["cancelled"] == 0


def test_tiny_queue_never_loses_a_wakeup_between_lists_and_singles():
    """Queue hop under contention: more client threads than cores push list
    and single requests through a 2-slot queue, so producers and the
    dispatcher park and wake each other constantly while the interpreter
    switches threads every few bytecodes.  Producers and the dispatcher
    wait on separate conditions and a ``get_many`` wakes one producer per
    slot it freed; a lost wake-up would hang a client (the joins below are
    bounded), a lost or doubled request would break the ledger or the edge
    count."""
    clients, rounds = 6, 60
    store = ShardedCuckooGraph(num_shards=2)
    service = GraphService(store, max_batch=4, queue_capacity=2,
                           policy="block").start()
    barrier = threading.Barrier(clients)
    inserted = [0] * clients

    def client(index: int):
        base = index * 100_000
        barrier.wait(WAIT_S)
        for round_no in range(rounds):
            u = base + round_no * 10
            chunk = service.insert_edges([(u, v) for v in range(4)])
            lone = service.insert_edge(u, 99)
            again = service.insert_edge(u, 99)
            inserted[index] += chunk.result(WAIT_S) + lone.result(WAIT_S) \
                + again.result(WAIT_S)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=client, args=(index,), daemon=True)
                   for index in range(clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(WAIT_S)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
        service.close()
    assert inserted == [rounds * 5] * clients
    assert store.num_edges == clients * rounds * 5
    summary = service.metrics_summary()
    assert summary["submitted_total"] == clients * rounds * 3
    assert summary["resolved"] == summary["submitted_total"]
    assert summary["items_resolved"] == summary["items_submitted"] \
        == clients * rounds * 6
    assert summary["failed"] == summary["cancelled"] == summary["rejected"] == 0
    store.close()
