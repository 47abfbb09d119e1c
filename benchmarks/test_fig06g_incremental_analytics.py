"""Figure 6g (extension): incremental analytics latency vs mutation rate.

Not a figure from the paper: this benchmark measures the axis the
incremental analytics replica exists to move -- repeated analytics cost on
a slowly-mutating graph should scale with the **mutation count**, not the
graph size.  A clustered graph (many ring components, so every node keeps
an outgoing edge and the node universe never changes) takes rounds of
component-confined edge churn; after each round, the same three dashboard
queries (PageRank, weakly connected components, top-k degrees) are timed
two ways on the *same replica state*:

* **Ours-Incremental** -- the :class:`~repro.analytics.AnalyticsFollower`
  folds the delta into its maintained kernels (one batched refetch of the
  dirty sources, dirty-frontier re-push) and answers from them;
* **Recompute** -- the library's ``pagerank``,
  ``weakly_connected_components`` and ``top_degree_nodes`` from scratch
  through a fresh :class:`TraversalEngine`, the O(graph) baseline every
  probe is also byte-compared against.

Acceptance gate (ISSUE 7): at the lowest mutation rate, the incremental
re-run must be at least ``REQUIRED_SPEEDUP``x faster than full recompute.
Parity is asserted unconditionally at every probe -- the speedup may never
be bought with drift.

The gate compares *medians* of the rounds, each timed right after a
``gc.collect()``.  The incremental side runs ~4 ms; late in a full pytest
session (~160 k tracked objects on the heap by the time this file runs) one
full collection landing inside one of five rounds multiplies their *mean*,
so a mean-based gate depended on what the earlier tests had left behind,
not on the code under test.

Results land as the usual text table plus machine-readable
``BENCH_fig06g.json`` for CI trend tooling.
"""

from __future__ import annotations

import gc
import random
import time
from statistics import median

from repro.analytics import (
    TraversalEngine,
    pagerank,
    top_degree_nodes,
    weakly_connected_components,
)
from repro.analytics.incremental import AnalyticsFollower
from repro.bench import format_table
from repro.persist import PersistentStore
from repro.replicate import Primary

from .conftest import benchmark_callable, write_bench_payload, write_report

#: Ring components: COMPONENTS * COMPONENT_SIZE nodes, same count of base
#: edges, no dangling nodes, constant node universe under the churn below.
COMPONENTS = 120
COMPONENT_SIZE = 25

#: PageRank sweeps (both sides use the same count, so parity is exact).
ITERATIONS = 25

#: Edges mutated per round, low to high.  The low point carries the gate.
MUTATION_COUNTS = (4, 64, 512)

#: Measured rounds per mutation count (after one unmeasured warm round).
ROUNDS = 5

#: ISSUE acceptance: incremental >= 5x faster at the low-mutation point.
REQUIRED_SPEEDUP = 5.0

TOP_K = 10


def build_base_edges() -> list[tuple[int, int]]:
    edges = []
    for component in range(COMPONENTS):
        offset = component * COMPONENT_SIZE
        edges.extend(
            (offset + i, offset + (i + 1) % COMPONENT_SIZE)
            for i in range(COMPONENT_SIZE)
        )
    return edges


def mutate(rng: random.Random, store, extra: set, count: int) -> None:
    """Insert/delete ``count`` non-ring edges inside single components.

    Ring edges are never touched, so every node keeps at least one outgoing
    edge (no dangling transitions) and the node universe stays constant --
    the steady-state regime the incremental PageRank path is built for.
    """
    inserts, deletes = [], []
    changed = 0
    while changed < count:
        offset = rng.randrange(COMPONENTS) * COMPONENT_SIZE
        u = offset + rng.randrange(COMPONENT_SIZE)
        v = offset + rng.randrange(COMPONENT_SIZE)
        if u == v or (u - offset + 1) % COMPONENT_SIZE == v - offset:
            continue  # self-loop or a ring edge
        if (u, v) in extra:
            deletes.append((u, v))
            extra.discard((u, v))
        else:
            inserts.append((u, v))
            extra.add((u, v))
        changed += 1
    if inserts:
        store.insert_edges(inserts)
    if deletes:
        store.delete_edges(deletes)


def run_incremental(primary, follower) -> dict:
    """Barrier + delta fold + the three dashboard queries, maintained."""
    follower.wait_for(primary.commit_index)
    follower.refresh_analytics()
    return {
        "pagerank": follower.pagerank(),
        "wcc": follower.components(),
        "top": follower.top_degree_nodes(TOP_K),
    }


def run_recompute(replica) -> dict:
    """The same three queries, the library kernels from scratch."""
    return {
        "pagerank": pagerank(replica, iterations=ITERATIONS,
                             engine=TraversalEngine(replica)),
        "wcc": weakly_connected_components(replica, engine=TraversalEngine(replica)),
        "top": top_degree_nodes(replica, TOP_K, engine=TraversalEngine(replica)),
    }


def test_fig06g_incremental_analytics(benchmark):
    rng = random.Random(20240515)
    store = PersistentStore(None, scheme="sharded", sync_on_commit=False,
                            compact_wal_bytes=None)
    primary = Primary(store)
    follower = AnalyticsFollower(scheme="sharded", iterations=ITERATIONS)
    primary.attach(follower)

    base_edges = build_base_edges()
    rows = []
    try:
        store.insert_edges(base_edges)
        primary.sync_and_pump()
        follower.wait_for(primary.commit_index)
        follower.refresh_analytics()  # pay the one-time full materialization
        extra: set = set()

        for mutations in MUTATION_COUNTS:
            incremental_s: list[float] = []
            recompute_s: list[float] = []
            for round_no in range(ROUNDS + 1):
                mutate(rng, store, extra, mutations)
                primary.sync_and_pump()

                gc.collect()
                started = time.perf_counter()
                served = run_incremental(primary, follower)
                incremental_elapsed = time.perf_counter() - started

                replica = follower.store
                gc.collect()
                started = time.perf_counter()
                reference = run_recompute(replica)
                recompute_elapsed = time.perf_counter() - started

                # Parity first: bit-exact at every probe, warm rounds included.
                assert served == reference, (
                    f"incremental outputs diverged at mutations={mutations} "
                    f"round={round_no}"
                )
                if round_no:  # round 0 is the unmeasured warm round
                    incremental_s.append(incremental_elapsed)
                    recompute_s.append(recompute_elapsed)

            incremental = median(incremental_s)
            recompute = median(recompute_s)
            speedup = recompute / incremental if incremental > 0 else float("inf")
            rows.append({
                "mutations": mutations,
                "incremental_ms": round(incremental * 1e3, 3),
                "recompute_ms": round(recompute * 1e3, 3),
                "speedup": round(speedup, 2),
            })

        stats = follower.analytics_stats()
        nodes = COMPONENTS * COMPONENT_SIZE

        # The acceptance gate rides the lowest mutation rate: re-run cost
        # must track the 4-edge delta, not the 3000-node graph.
        low = rows[0]
        assert low["speedup"] >= REQUIRED_SPEEDUP, (
            f"incremental re-run only {low['speedup']}x faster than full "
            f"recompute at {low['mutations']} mutations "
            f"(required {REQUIRED_SPEEDUP}x): {rows}"
        )

        title = (
            f"Incremental analytics vs recompute ({COMPONENTS}x"
            f"{COMPONENT_SIZE}-node ring components, {ITERATIONS} PR sweeps, "
            f"median of {ROUNDS} rounds/point)"
        )
        write_report(
            "fig06g_incremental_analytics",
            format_table(
                rows,
                columns=["mutations", "incremental_ms", "recompute_ms",
                         "speedup"],
                title=title,
            ),
        )
        write_bench_payload("fig06g", {
            "figure": "fig06g_incremental_analytics",
            "dataset": f"synthetic-rings-{COMPONENTS}x{COMPONENT_SIZE}",
            "nodes": nodes,
            "base_edges": len(base_edges),
            "iterations": ITERATIONS,
            "rounds_per_point": ROUNDS,
            "top_k": TOP_K,
            "required_speedup": REQUIRED_SPEEDUP,
            "speedup_at_low_point": low["speedup"],
            "analytics_stats": stats,
            "rows": rows,
        })

        def dashboard_round():
            mutate(rng, store, extra, MUTATION_COUNTS[0])
            primary.sync_and_pump()
            return run_incremental(primary, follower)

        assert set(benchmark_callable(benchmark, dashboard_round)) == \
            {"pagerank", "wcc", "top"}
    finally:
        follower.close()
        primary.close()
        store.close()
