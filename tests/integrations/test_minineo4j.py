"""Tests for the mini-Neo4j property graph and its CuckooGraph index (Section V-G)."""

import pytest

from repro.core.errors import IntegrationError
from repro.integrations import MiniNeo4j


class TestNodesAndRelationships:
    def test_create_node(self):
        db = MiniNeo4j()
        node_id = db.create_node(labels=("User",), name="ada")
        assert db.has_node(node_id)
        assert db.node_count == 1

    def test_duplicate_node_id_rejected(self):
        db = MiniNeo4j()
        db.create_node(node_id=5)
        with pytest.raises(IntegrationError):
            db.create_node(node_id=5)

    def test_create_relationship_creates_missing_endpoints(self):
        db = MiniNeo4j()
        rel_id = db.create_relationship(1, 2, "FOLLOWS", since=2020)
        assert db.has_node(1) and db.has_node(2)
        [record] = db.relationships()
        assert record.rel_id == rel_id
        assert (record.start, record.end, record.rel_type) == (1, 2, "FOLLOWS")
        assert record.properties["since"] == 2020

    def test_relationship_count(self):
        db = MiniNeo4j()
        db.create_relationship(1, 2)
        assert db.relationship_count == 1

    def test_delete_relationship(self):
        db = MiniNeo4j()
        rel_id = db.create_relationship(1, 2)
        assert db.delete_relationship(rel_id) is True
        assert db.delete_relationship(rel_id) is False
        assert not db.has_relationship(1, 2)


@pytest.mark.parametrize("use_index", [False, True], ids=["plain", "cuckoo-indexed"])
class TestEdgeQueries:
    def test_find_relationships_returns_all_parallel_edges(self, use_index):
        db = MiniNeo4j(use_cuckoo_index=use_index)
        first = db.create_relationship(1, 2, "A")
        second = db.create_relationship(1, 2, "B")
        db.create_relationship(1, 3, "C")
        found = sorted(record.rel_id for record in db.find_relationships(1, 2))
        assert found == sorted([first, second])
        assert db.has_relationship(1, 2)
        assert not db.has_relationship(2, 1)

    def test_find_on_unknown_node_is_empty(self, use_index):
        db = MiniNeo4j(use_cuckoo_index=use_index)
        assert list(db.find_relationships(9, 10)) == []

    def test_neighbours(self, use_index):
        db = MiniNeo4j(use_cuckoo_index=use_index)
        db.create_relationship(1, 2)
        db.create_relationship(1, 3)
        db.create_relationship(2, 1)
        assert sorted(db.neighbours(1)) == [2, 3]
        assert db.neighbours(42) == []

    def test_delete_keeps_index_consistent(self, use_index):
        db = MiniNeo4j(use_cuckoo_index=use_index)
        first = db.create_relationship(1, 2)
        second = db.create_relationship(1, 2)
        db.delete_relationship(first)
        remaining = [record.rel_id for record in db.find_relationships(1, 2)]
        assert remaining == [second]

    def test_load_edge_stream(self, use_index):
        db = MiniNeo4j(use_cuckoo_index=use_index)
        edges = [(1, 2), (1, 2), (2, 3)]
        assert db.load_edge_stream(edges) == 3
        assert db.relationship_count == 3
        assert len(list(db.find_relationships(1, 2))) == 2


class TestIndexEquivalence:
    def test_indexed_and_plain_agree_on_random_workload(self):
        import random

        rng = random.Random(13)
        plain = MiniNeo4j(use_cuckoo_index=False)
        indexed = MiniNeo4j(use_cuckoo_index=True)
        pairs = [(rng.randrange(30), rng.randrange(30)) for _ in range(800)]
        for u, v in pairs:
            plain.create_relationship(u, v)
            indexed.create_relationship(u, v)
        for u in range(30):
            for v in range(30):
                plain_ids = sorted(r.rel_id for r in plain.find_relationships(u, v))
                indexed_ids = sorted(r.rel_id for r in indexed.find_relationships(u, v))
                assert plain_ids == indexed_ids

    def test_index_reduces_scan_work_for_high_degree_nodes(self):
        indexed = MiniNeo4j(use_cuckoo_index=True)
        for v in range(2000):
            indexed.create_relationship(0, v)
        # The iterator is obtained without traversing the whole adjacency list.
        target = list(indexed.find_relationships(0, 1999))
        assert len(target) == 1
