"""What ``GraphClient`` sends through the service and what it forwards.

The client is a delegating store over the served store; the calls it
overrides must each reach the service as a request, even those the store
contract would otherwise answer from another member.
"""

from __future__ import annotations

import pytest

from repro import ShardedCuckooGraph
from repro.service import GraphClient, GraphService


def _requests(client: GraphClient) -> int:
    return sum(client.service.metrics.submitted.values())


@pytest.mark.parametrize("name, args, expected", [
    ("has_edge", (1, 2), True),
    ("successors", (1,), [2]),
    ("out_degree", (1,), 1),
    ("has_node", (1,), True),
    ("has_node", (7,), False),
], ids=["has_edge", "successors", "out_degree", "has_node", "has_node-absent"])
def test_reads_submit_one_request_each(name, args, expected):
    with GraphClient.local(num_shards=4) as client:
        client.insert_edge(1, 2)
        before = _requests(client)
        assert getattr(client, name)(*args) == expected
        assert _requests(client) == before + 1


def test_introspection_reads_the_store_directly():
    with GraphClient.local(num_shards=4) as client:
        client.insert_edge(1, 2)
        before = _requests(client)
        store = client.service.store
        assert list(client.edges()) == list(store.edges())
        assert client.num_edges == 1
        assert client.memory_bytes() == store.memory_bytes()
        assert client.accesses == store.accesses
        assert client.counters.snapshot() == store.counters.snapshot()
        assert client.structure_summary() == store.structure_summary()
        assert type(client.spawn_empty()) is ShardedCuckooGraph
        assert _requests(client) == before


def test_weighted_stays_false_over_a_weighted_store():
    store = ShardedCuckooGraph(num_shards=2, weighted=True)
    with GraphClient(GraphService(store, own_store=True), close_service=True) as client:
        assert store.weighted
        assert client.weighted is False
        assert client.num_shards == 2
