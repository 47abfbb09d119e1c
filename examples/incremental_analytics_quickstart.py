"""Incremental analytics quickstart: a live dashboard over a mutating graph.

The ordinary way to put PageRank on a dashboard is to recompute it from
scratch every refresh -- O(graph) work for a delta of a handful of edges.
This example runs the alternative shipped in ``repro.analytics.incremental``:
an :class:`~repro.analytics.AnalyticsFollower` attached to a WAL-backed
primary's change feed (``Primary.attach``), which folds only the *shipped
delta* into maintained kernels (PageRank, weakly connected components, degree
top-k) once its read-your-writes barrier has closed.

The loop below plays five dashboard ticks: mutate a little, query the
dashboard, print what the maintenance layer actually did (cache hit rate,
dirty sources, incremental-vs-recompute decisions).  Every refresh is also
byte-compared against the library's ``pagerank`` and
``weakly_connected_components`` recomputed from scratch -- the speed is
never bought with drift.

Run with ``PYTHONPATH=src python examples/incremental_analytics_quickstart.py``.
"""

import random
import tempfile
from pathlib import Path

from repro import ShardedCuckooGraph
from repro.analytics import (
    AnalyticsFollower,
    TraversalEngine,
    bfs,
    pagerank,
    weakly_connected_components,
)
from repro.persist import PersistentStore
from repro.replicate import Primary

COMMUNITIES = 12
COMMUNITY_SIZE = 30
EDGES_PER_TICK = 8
NUM_SHARDS = 4
TICKS = 5
TOP_K = 5


def seed_edges(rng: random.Random) -> list[tuple[int, int]]:
    """A clustered graph: dense communities, a sparse ring between them."""
    edges = []
    for community in range(COMMUNITIES):
        offset = community * COMMUNITY_SIZE
        edges.extend(
            (offset + i, offset + (i + 1) % COMMUNITY_SIZE)
            for i in range(COMMUNITY_SIZE)
        )
        edges.extend(
            (offset + rng.randrange(COMMUNITY_SIZE),
             offset + rng.randrange(COMMUNITY_SIZE))
            for _ in range(COMMUNITY_SIZE)
        )
    return [(u, v) for u, v in edges if u != v]


def tick_mutations(rng: random.Random) -> list[tuple[int, int]]:
    """A small burst of intra-community churn -- one dashboard tick."""
    offset = rng.randrange(COMMUNITIES) * COMMUNITY_SIZE
    return [
        (offset + rng.randrange(COMMUNITY_SIZE),
         offset + rng.randrange(COMMUNITY_SIZE))
        for _ in range(EDGES_PER_TICK)
    ]


def demo(workspace: Path) -> None:
    rng = random.Random(7)
    store = PersistentStore(
        workspace / "dashboard",
        store=ShardedCuckooGraph(num_shards=NUM_SHARDS),
        own_store=True,
        sync_on_commit=False,   # commits are flushed when the barrier ships them
    )
    primary = Primary(store)
    follower = AnalyticsFollower(
        store=ShardedCuckooGraph(num_shards=NUM_SHARDS), own_store=True)
    primary.attach(follower)
    store.insert_edges(seed_edges(rng))

    for tick in range(1, TICKS + 1):
        # Live traffic lands on the primary through the normal write path.
        mutations = tick_mutations(rng)
        store.insert_edges(mutations)

        # Dashboard refresh: barrier, then delta fold + maintained kernels.
        primary.sync_and_pump()
        follower.wait_for(primary.commit_index)
        dirty = follower.cache.dirty_count
        ranks = follower.pagerank()
        communities = follower.components()
        top = follower.top_degree_nodes(TOP_K)
        # Traversals ride the same replica through the adjacency cache:
        # only sources the tick dirtied are refetched from the store.
        reach = bfs(follower.store, top[0], engine=follower.engine())

        # Trust but verify: the kernels recomputed on the replica are
        # byte-identical to what the maintained kernels just served.
        replica = follower.store
        assert ranks == pagerank(replica, engine=TraversalEngine(replica))
        assert communities == weakly_connected_components(
            replica, engine=TraversalEngine(replica))

        leaders = ", ".join(
            f"{node}:{ranks[node]:.5f}" for node in top)
        print(f"tick {tick}: +{len(mutations)} edges, {dirty} dirty sources -> "
              f"{len(communities)} components, top-{TOP_K} [{leaders}], "
              f"{len(reach)} nodes reachable from {top[0]}")

    stats = follower.analytics_stats()
    cache = stats["cache"]
    print(f"\nmaintenance: decisions {stats['decisions']} over "
          f"{stats['ops_seen']} shipped ops")
    print(f"adjacency cache: hit rate {cache['hit_rate']:.3f} "
          f"({cache['hits']} hits, {cache['refetched']} refetched "
          f"across {cache['refreshes']} refreshes)")
    print(f"kernels: pagerank decisions {stats['kernels']['pagerank']}, "
          f"pagerank nodes re-evaluated "
          f"{stats['pagerank_nodes_recomputed']}, component nodes "
          f"recomputed {stats['components_nodes_recomputed']}")
    follower.close()
    primary.close()
    store.close()


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="repro-incremental-demo-") as tmp:
        demo(Path(tmp))


if __name__ == "__main__":
    main()
