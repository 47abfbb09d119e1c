"""Tests for the DynamicGraphStore default implementations."""

from types import GeneratorType

import pytest

from repro.interfaces import DelegatingStore, DynamicGraphStore, WeightedGraphStore
from repro import CuckooGraph, ShardedCuckooGraph, WeightedCuckooGraph
from repro.tiered import TieredStore


class MinimalStore(DynamicGraphStore):
    """Smallest possible conforming store, to exercise the ABC defaults."""

    name = "Minimal"

    def __init__(self):
        self._edges: set[tuple[int, int]] = set()

    def insert_edge(self, u: int, v: int) -> bool:
        if (u, v) in self._edges:
            return False
        self._edges.add((u, v))
        return True

    def has_edge(self, u: int, v: int) -> bool:
        return (u, v) in self._edges

    def delete_edge(self, u: int, v: int) -> bool:
        if (u, v) not in self._edges:
            return False
        self._edges.discard((u, v))
        return True

    def successors(self, u: int) -> list[int]:
        return [v for (source, v) in self._edges if source == u]

    def edges(self):
        return iter(sorted(self._edges))

    def memory_bytes(self) -> int:
        return 16 * len(self._edges)

    @property
    def num_edges(self) -> int:
        return len(self._edges)


class TestDefaults:
    def test_abstract_class_cannot_be_instantiated(self):
        with pytest.raises(TypeError):
            DynamicGraphStore()  # type: ignore[abstract]

    def test_default_out_degree_and_has_node(self):
        store = MinimalStore()
        store.insert_edge(1, 2)
        store.insert_edge(1, 3)
        assert store.out_degree(1) == 2
        assert store.has_node(1)
        assert not store.has_node(2)

    def test_default_node_iterators(self):
        store = MinimalStore()
        store.insert_edge(1, 2)
        store.insert_edge(3, 1)
        assert sorted(store.source_nodes()) == [1, 3]
        assert sorted(store.nodes()) == [1, 2, 3]
        assert store.num_nodes == 3

    def test_default_edges_iterator(self):
        store = MinimalStore()
        store.insert_edge(1, 2)
        store.insert_edge(2, 3)
        assert sorted(store.edges()) == [(1, 2), (2, 3)]

    def test_bulk_insert_and_delete_defaults(self):
        store = MinimalStore()
        assert store.insert_edges([(1, 2), (1, 2), (2, 3)]) == 2
        assert store.delete_edges([(1, 2), (9, 9)]) == 1

    def test_default_access_counter_exists(self):
        store = MinimalStore()
        assert store.accesses == 0
        store.reset_accesses()
        assert store.accesses == 0

    def test_default_lifecycle_and_summary(self):
        store = MinimalStore()
        store.insert_edge(1, 2)
        assert store.counters is None
        assert store.structure_summary() == {"num_edges": 1}
        with store:
            assert not store.closed
        assert store.closed
        assert store.has_edge(1, 2)  # a plain structure keeps serving


class TestWeightedContract:
    def test_weighted_store_base_insert_not_implemented(self):
        class Incomplete(MinimalStore, WeightedGraphStore):
            def edge_weight(self, u: int, v: int) -> int:
                return 1 if self.has_edge(u, v) else 0

        with pytest.raises(NotImplementedError):
            Incomplete().insert_weighted_edge(1, 2)

    def test_weighted_cuckoograph_satisfies_contract(self):
        graph = WeightedCuckooGraph()
        assert isinstance(graph, WeightedGraphStore)
        assert graph.insert_weighted_edge(1, 2) == 1
        assert graph.edge_weight(1, 2) == 1


class Forwarding(DelegatingStore):
    """Overrides nothing: whatever it answers, the base forwarded."""


#: Contract methods the delegating base must hand to the wrapped store.
FORWARDED_METHODS = (
    "insert_edge", "delete_edge", "has_edge", "successors", "out_degree",
    "has_node", "edge_weight", "insert_edges", "delete_edges", "has_edges",
    "successors_many", "edges", "source_nodes", "memory_bytes",
    "reset_accesses", "structure_summary", "spawn_empty",
)

#: One script of calls, mutations first, so the reads see a populated store.
SCRIPT = (
    ("insert_edges", ([(u, v) for u in range(40) for v in (u + 1, u + 7, 3 * u)],)),
    ("insert_edge", (5, 99)),
    ("insert_edge", (5, 99)),
    ("delete_edge", (1, 2)),
    ("delete_edge", (1000, 1)),
    ("delete_edges", ([(2, 3), (2, 9), (77, 78)],)),
    ("has_edge", (5, 99)),
    ("has_edge", (5, 98)),
    ("successors", (3,)),
    ("out_degree", (3,)),
    ("has_node", (3,)),
    ("has_node", (10**6,)),
    ("has_edges", ([(3, 4), (3, 5), (39, 40), (3, 4)],)),
    ("successors_many", ([3, 4, 3, 10**6],)),
    ("edge_weight", (5, 99)),
    ("edges", ()),
    ("source_nodes", ()),
    ("memory_bytes", ()),
    ("structure_summary", ()),
    ("reset_accesses", ()),
    ("spawn_empty", ()),
)


def _recording(store, log):
    """Log the name of every contract method called on ``store``."""
    def recorder(name, method):
        def record(*args):
            log.append(name)
            return method(*args)
        return record

    for name in FORWARDED_METHODS:
        method = getattr(store, name, None)
        if method is not None:
            setattr(store, name, recorder(name, method))
    return store


def _outcome(store, name, args):
    try:
        value = getattr(store, name)(*args)
    except Exception as error:  # e.g. edge_weight on an unweighted store
        return ("raises", type(error))
    if isinstance(value, GeneratorType) or name in ("edges", "source_nodes"):
        value = list(value)
    if name == "spawn_empty":
        value = type(value)
    return ("returns", value)


def _state(store):
    counters = store.counters
    return (store.num_edges, store.accesses, store.weighted, store.num_shards,
            None if counters is None else counters.snapshot())


@pytest.mark.parametrize("make", [
    CuckooGraph,
    lambda: ShardedCuckooGraph(num_shards=4, weighted=True),
    lambda: TieredStore(num_shards=4, hot_shards=2),
], ids=["CuckooGraph", "ShardedCuckooGraph-weighted", "TieredStore"])
def test_delegating_base_forwards_every_contract_member(make):
    """A wrapper that overrides nothing answers every call exactly as its
    store does, and each call reaches the wrapped store as that same call
    (not as a default derived from another member)."""
    log: list[str] = []
    inner = make()
    wrapper = Forwarding(_recording(inner, log))
    twin = make()
    assert _state(wrapper) == _state(twin)
    for name, args in SCRIPT:
        log.clear()
        assert _outcome(wrapper, name, args) == _outcome(twin, name, args), name
        if hasattr(twin, name):
            assert log[:1] == [name], f"{name} was not forwarded: {log[:3]}"
        assert _state(wrapper) == _state(twin), name
    assert wrapper.structure_summary() == twin.structure_summary()
