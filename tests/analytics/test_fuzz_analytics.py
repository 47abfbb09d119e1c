"""Seeded analytics lane: whole-graph kernels on random graphs, every store.

Each ``fuzz_seed`` draws a graph over random 62-bit ids with sinks (nodes
that are only ever targets), self-loops, and sources emptied by deletes,
and builds it under the default configuration and under
``tests/core/test_golden_counts.py``'s ``TIGHT`` and ``TINY_LCHT`` ones,
where edges park in the S-DL (small denylist) and whole sources in the L-DL
(large denylist).  Under both the lane requires each denylist to have held
entries; ``TINY_LCHT`` (one cell a bucket, one kick a try) fills them
whatever the hash constants.
The kernels take their node set from one ``successors_many`` over
``source_nodes()``, so a source that ``source_nodes()`` missed would drop
out of every answer here.  At the first insert chunk that leaves an S-DL
entry, at the first that leaves an L-DL entry, after all inserts and after
the deletes, PageRank, betweenness, SCC and WCC on ``CuckooGraph``,
``ShardedCuckooGraph(4)``, ``TieredStore`` and ``PersistentStore`` must
equal the ``AdjacencyListGraph`` answer with plain ``==``, and so must the
PageRank an ``AnalyticsFollower`` of the persistent store maintains.

``--fuzz-runs=N`` widens the sweep; a failure names its seed.
"""

import random

import pytest

from repro import CuckooGraph, CuckooGraphConfig, PersistentStore, ShardedCuckooGraph
from repro.analytics import (
    AnalyticsFollower,
    betweenness_centrality,
    pagerank,
    strongly_connected_components,
    weakly_connected_components,
)
from repro.baselines import AdjacencyListGraph
from repro.replicate import Primary
from repro.tiered import TieredStore

from ..core.test_golden_counts import TIGHT, TINY_LCHT

ITERATIONS = 20
#: Node ids that may be sources, and ids that are only ever targets.
NODES, SINKS = 400, 12
#: Skewed draws (sources and targets), before self-loops and sink edges.
DRAWS = 1200
#: Items per ``insert_edges`` / ``delete_edges`` call.
CHUNK = 64

CONFIGS = {"default": {}, "tight": TIGHT, "tiny_lcht": TINY_LCHT}
#: Structure-summary field of each denylist.
DENYLISTS = {"S-DL": "small_denylist_entries", "L-DL": "large_denylist_entries"}

KERNELS = {
    "pagerank": lambda store: pagerank(store, iterations=ITERATIONS),
    "betweenness": betweenness_centrality,
    "scc": strongly_connected_components,
    "wcc": weakly_connected_components,
}


def random_graph(seed):
    """``(inserts, deletes)`` of one seeded graph, duplicates included."""
    rng = random.Random(seed)
    pool = rng.sample(range(1 << 62), NODES + SINKS)
    ids, sinks = pool[:NODES], pool[NODES:]
    inserts = [(ids[int(NODES * rng.random() ** 2)], ids[int(NODES * rng.random() ** 2)])
               for _ in range(DRAWS)]
    inserts += [(node, node) for node in rng.sample(ids, 10)]
    inserts += [(rng.choice(ids), sink) for sink in sinks for _ in range(3)]
    rng.shuffle(inserts)
    by_source = {}
    for u, v in dict.fromkeys(inserts):
        by_source.setdefault(u, []).append(v)
    emptied = rng.sample(sorted(by_source), len(by_source) // 10)
    deletes = [(u, v) for u in emptied for v in by_source[u]]
    deletes += rng.sample(inserts, len(inserts) // 5)
    rng.shuffle(deletes)
    return inserts, deletes


@pytest.mark.parametrize("config_name", sorted(CONFIGS))
def test_kernels_equal_the_adjacency_list_answer(fuzz_seed, config_name, tmp_path):
    """Plain ``==`` at every checkpoint; under ``TIGHT`` and ``TINY_LCHT``
    both denylists must have held entries at one of them."""
    config = CuckooGraphConfig(**CONFIGS[config_name])
    inserts, deletes = random_graph(fuzz_seed)
    reference = AdjacencyListGraph()
    persistent = PersistentStore(tmp_path / "primary", store=CuckooGraph(config),
                                 own_store=True, sync_on_commit=False,
                                 compact_wal_bytes=None)
    stores = {
        "CuckooGraph": CuckooGraph(config),
        "ShardedCuckooGraph": ShardedCuckooGraph(4, config=config),
        "TieredStore": TieredStore(num_shards=4, hot_shards=2, config=config),
        "PersistentStore": persistent,
    }
    primary = Primary(persistent)
    follower = AnalyticsFollower(scheme=lambda: CuckooGraph(config),
                                 iterations=ITERATIONS)
    primary.attach(follower)

    def apply(method, chunk):
        getattr(reference, method)(chunk)
        for store in stores.values():
            getattr(store, method)(chunk)

    def check(when):
        context = f"seed={fuzz_seed} config={config_name} {when}"
        expected = {name: kernel(reference) for name, kernel in KERNELS.items()}
        for store_name, store in stores.items():
            for name, kernel in KERNELS.items():
                assert kernel(store) == expected[name], f"{context}: {name} on {store_name}"
        primary.sync_and_pump()
        follower.wait_for(primary.commit_index)
        assert follower.pagerank() == expected["pagerank"], f"{context}: follower"

    parked = set()
    try:
        for start in range(0, len(inserts), CHUNK):
            apply("insert_edges", inserts[start:start + CHUNK])
            summary = stores["CuckooGraph"].structure_summary()
            newly = {name for name, field in DENYLISTS.items() if summary[field]} - parked
            if newly:
                parked |= newly
                check(f"with {' and '.join(sorted(newly))} entries")
        check("after the inserts")
        for start in range(0, len(deletes), CHUNK):
            apply("delete_edges", deletes[start:start + CHUNK])
        check("after the deletes")
        if config_name in ("tight", "tiny_lcht"):
            assert parked == set(DENYLISTS), f"seed={fuzz_seed}: only {parked} parked"
    finally:
        follower.close()
        primary.close()
        for store in stores.values():
            store.close()
