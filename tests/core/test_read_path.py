"""Read-path parity: the one-frame reads answer and charge as the components do.

``CuckooGraph.successors`` walks the L-CHT sides inline and lists the small
slots or the S-CHT chain itself, ``successors_many`` runs the same body in one
loop, and ``nodes()`` walks the cells once instead of going through
``edges()``.  Each must return what the component path returns --
``part2_of(u).neighbours()`` plus the node's S-DL entries, and the default
``DynamicGraphStore.nodes`` -- in the same order, and move ``bucket_probes``
and ``cell_probes`` by exactly what the component path moves them.  A chain's
listing is also checked against a walk of its tables written out here (oldest
table first, first array then second, bucket by bucket), so the order cannot
drift with ``TableChain.keys()``.

The graphs are built to hold every shape a read meets: small slots, S-CHT
chains of one, two and three tables, chains that contracted, a node parked in
the L-DL, edges parked in the S-DL and a source whose only edges are parked
there (the golden stream's ``TIGHT`` configuration), plus queries of unknown
nodes.
"""

import random

import pytest

from repro import CuckooGraph, CuckooGraphConfig, ShardedCuckooGraph, WeightedCuckooGraph
from repro.core.multiedge import MultiEdgeCuckooGraph
from repro.interfaces import DynamicGraphStore

from .test_golden_counts import TIGHT

#: Sources with degrees 3, 6, ..., 3 * HUBS: every S-CHT chain length.
HUBS = 40
#: Degree-1 sources: enough to overflow a ``TIGHT`` L-CHT into the L-DL.
LEAVES = 1400
#: Hubs that lose all but ``KEEP`` successors, contracting their chains.
SHRUNK = 6
KEEP = 4
#: Never inserted, as a source or as a destination.
UNKNOWN = 1 << 50

STORES = {
    "plain": lambda: CuckooGraph(),
    "tight": lambda: CuckooGraph(CuckooGraphConfig(**TIGHT)),
    "weighted": lambda: WeightedCuckooGraph(),
    "tight_weighted": lambda: WeightedCuckooGraph(CuckooGraphConfig(**TIGHT)),
    "multiedge": lambda: MultiEdgeCuckooGraph(),
    "sharded": lambda: ShardedCuckooGraph(num_shards=3),
    "tight_sharded": lambda: ShardedCuckooGraph(
        num_shards=3, config=CuckooGraphConfig(**TIGHT)),
}


def build(store, seed: int = 11) -> list[int]:
    """Fill ``store``; return the nodes to query: every source, as many
    destination-only nodes, and an unknown one."""
    rng = random.Random(seed)
    hubs = [rng.getrandbits(40) for _ in range(HUBS)]
    targets = {}
    for degree, u in enumerate(hubs, 1):
        targets[u] = [rng.getrandbits(40) for _ in range(3 * degree)]
        for v in targets[u]:
            store.insert_edge(u, v)
    leaves = [(rng.getrandbits(40), rng.getrandbits(40)) for _ in range(LEAVES)]
    for u, v in leaves:
        store.insert_edge(u, v)
    for u in hubs[-SHRUNK:]:
        for v in targets[u][KEEP:]:
            store.delete_edge(u, v)
    for u in hubs[:-SHRUNK]:
        # A source left with S-DL entries only keeps an empty Part 2.
        parked = {v for v, _ in graph_of(store, u).small_denylist.successors_of(u)}
        if parked:
            for v in targets[u]:
                if v not in parked:
                    store.delete_edge(u, v)
            break
    return hubs + [u for u, _ in leaves] + [v for _, v in leaves[:HUBS]] + [UNKNOWN]


def graphs_of(store) -> list[CuckooGraph]:
    return store.shards if isinstance(store, ShardedCuckooGraph) else [store]


def graph_of(store, u: int) -> CuckooGraph:
    """The ``CuckooGraph`` that holds source ``u``."""
    return graphs_of(store)[store.shard_of(u)]


def charged(graph: CuckooGraph, call):
    """``call()``'s result and the ``(bucket_probes, cell_probes)`` it added."""
    counters = graph.counters
    probes, cells = counters.bucket_probes, counters.cell_probes
    result = call()
    return result, (counters.bucket_probes - probes, counters.cell_probes - cells)


def walked(chain) -> list[tuple[int, object]]:
    """A chain's ``(key, value)`` pairs: oldest table first, first array then
    second, bucket by bucket."""
    pairs = []
    for table in chain.tables:
        for array, _, _ in table._sides:
            for bucket in array:
                pairs.extend(bucket.items())
    return pairs


def listed(part2) -> list[int]:
    """A Part 2's neighbours: its small slots, or its chain walked."""
    if part2.chain is None:
        return list(part2._slots)
    return [v for v, _ in walked(part2.chain)]


def component_successors(graph: CuckooGraph, u: int) -> list[int]:
    """The L-CHT (then L-DL) lookup, the Part 2 listing, the S-DL entries."""
    part2 = graph.part2_of(u)
    if part2 is None:
        found = []
    else:
        found = part2.neighbours()
        assert found == listed(part2)
    return found + [v for v, _ in graph.small_denylist.successors_of(u)]


@pytest.fixture(scope="module", params=sorted(STORES))
def loaded(request):
    store = STORES[request.param]()
    return request.param, store, build(store)


def test_the_graphs_hold_every_read_shape(loaded):
    """The shapes the parity tests need are really there."""
    name, store, _ = loaded
    graphs = graphs_of(store)
    if name.startswith("tight"):
        assert any(len(graph.large_denylist) for graph in graphs)
        assert any(len(graph.small_denylist) for graph in graphs)
        assert any(len(graph.part2_of(u)) == 0 for graph in graphs
                   for u in graph.source_nodes())
    else:
        chains = [graph.part2_of(u).chain for graph in graphs for u in graph.source_nodes()]
        assert {0 if chain is None else chain.num_tables for chain in chains} == {0, 1, 2, 3}
        assert all(graph.counters.contractions for graph in graphs)


def test_successors_match_the_component_path(loaded):
    name, store, nodes = loaded
    for u in nodes:
        graph = graph_of(store, u)
        want, want_charge = charged(graph, lambda: component_successors(graph, u))
        got, got_charge = charged(graph, lambda: store.successors(u))
        assert got == want, (name, u)
        assert got_charge == want_charge, (name, u)
        degree, degree_charge = charged(graph, lambda: store.out_degree(u))
        assert degree == len(want), (name, u)
        assert degree_charge == charged(graph, lambda: graph.part2_of(u))[1], (name, u)


def test_successors_many_matches_successors(loaded):
    name, store, nodes = loaded
    queried = nodes + nodes[::7]  # repeats are answered once
    want = {}
    charge = [0, 0]
    for u in dict.fromkeys(queried):
        want[u], (probes, cells) = charged(graph_of(store, u), lambda: store.successors(u))
        charge[0] += probes
        charge[1] += cells
    before = [(g.counters.bucket_probes, g.counters.cell_probes) for g in graphs_of(store)]
    got = store.successors_many(queried)
    after = [(g.counters.bucket_probes, g.counters.cell_probes) for g in graphs_of(store)]
    assert list(got) == list(want), name
    assert got == want, name
    assert [sum(a[i] - b[i] for a, b in zip(after, before)) for i in (0, 1)] == charge, name


def test_nodes_and_edges_match_the_defaults(loaded):
    name, store, _ = loaded
    for graph in graphs_of(store):
        cells = walked(graph.lcht) + list(graph.large_denylist.items())
        parked = [edge for edge, _ in graph.small_denylist.items()]
        edges, charge = charged(graph, lambda: list(graph.edges()))
        assert edges == [(u, v) for u, part2 in cells for v in listed(part2)] + parked, name
        assert charge == (0, 0), name
        nodes, charge = charged(graph, lambda: list(graph.nodes()))
        assert nodes == list(DynamicGraphStore.nodes(graph)), name
        assert charge == (0, 0), name
    assert list(store.nodes()) == list(DynamicGraphStore.nodes(store)), name
    assert store.num_nodes == len(set(store.nodes())), name
