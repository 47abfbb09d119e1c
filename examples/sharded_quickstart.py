#!/usr/bin/env python3
"""Quickstart for the sharded, batch-capable CuckooGraph front-end.

``ShardedCuckooGraph`` hash-partitions source nodes across N independent
CuckooGraph shards: every node's out-edges live on exactly one shard, the
shard choice is a deterministic hash (stable across instances and
processes), and a batch of operations is grouped per shard before being
drained on the calling thread, one group after another.

Run with::

    python examples/sharded_quickstart.py
"""

import random
import time

from repro import CuckooGraph, ShardedCuckooGraph


def make_edges(count: int = 20000, nodes: int = 4000) -> list[tuple[int, int]]:
    rng = random.Random(7)
    edges = set()
    while len(edges) < count:
        u, v = rng.randrange(nodes), rng.randrange(nodes)
        if u != v:
            edges.add((u, v))
    return list(edges)


def batch_basics() -> None:
    """The batch APIs: whole edge lists in, aggregate or per-item results out."""
    graph = ShardedCuckooGraph(num_shards=4)
    edges = [(1, 2), (1, 3), (2, 3), (3, 1)]

    print("newly inserted:", graph.insert_edges(edges))          # -> 4
    print("membership:", graph.has_edges([(1, 2), (2, 1)]))      # -> [True, False]
    print("fan-out:", graph.successors_many([1, 2, 99]))
    print("deleted:", graph.delete_edges([(1, 2), (9, 9)]))      # -> 1

    # Routing is deterministic: node 1's out-edges always live on one shard.
    print("node 1 lives on shard", graph.shard_of(1), "of", graph.num_shards)


def shard_balance() -> None:
    """Shards stay balanced, and all accounting aggregates across them."""
    graph = ShardedCuckooGraph(num_shards=8)
    graph.insert_edges(make_edges())
    print("\nedges per shard:", graph.shard_sizes())
    print("total edges:", graph.num_edges)
    print("aggregated memory:", graph.memory_bytes(), "bytes")
    print("aggregated bucket probes:", graph.counters.bucket_probes)


def batched_versus_single() -> None:
    """Batching amortizes routing; correctness is identical to one instance."""
    edges = make_edges()
    single = CuckooGraph()
    sharded = ShardedCuckooGraph(num_shards=4)

    start = time.perf_counter()
    for u, v in edges:
        single.insert_edge(u, v)
    single_seconds = time.perf_counter() - start

    start = time.perf_counter()
    sharded.insert_edges(edges)
    sharded_seconds = time.perf_counter() - start

    assert sorted(single.edges()) == sorted(sharded.edges())
    print(f"\nsingle-instance loop: {single_seconds:.3f}s")
    print(f"sharded batch insert: {sharded_seconds:.3f}s (same edge set)")


def analytics_through_the_engine() -> None:
    """The analytics kernels drive any store through batched frontiers."""
    from repro.analytics import TraversalEngine, bfs, top_degree_nodes

    graph = ShardedCuckooGraph(num_shards=4)
    graph.insert_edges(make_edges())
    engine = TraversalEngine(graph)
    roots = top_degree_nodes(graph, 3, engine=engine)
    visited = sum(len(bfs(graph, root, engine=engine)) for root in roots)
    print(f"\nBFS from {len(roots)} roots visited {visited} nodes using "
          f"{engine.batch_calls} batched store calls "
          f"({engine.nodes_expanded} nodes expanded)")


if __name__ == "__main__":
    batch_basics()
    shard_balance()
    batched_versus_single()
    analytics_through_the_engine()
