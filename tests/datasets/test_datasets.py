"""Tests for the synthetic dataset generators, Table IV profiles and streams."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.datasets import (
    DATASET_ORDER,
    TABLE4_PROFILES,
    EdgeStream,
    dataset_profile,
    dense_edge_set,
    duplicate_stream,
    load_dataset,
    powerlaw_edge_set,
    regular_edge_set,
)


class TestGenerators:
    def test_powerlaw_edges_are_distinct_and_sized(self):
        rng = random.Random(1)
        edges = powerlaw_edge_set(200, 1500, rng)
        assert len(edges) == 1500
        assert len(set(edges)) == 1500
        assert all(u != v for u, v in edges)

    def test_powerlaw_degrees_are_skewed(self):
        rng = random.Random(2)
        edges = powerlaw_edge_set(500, 3000, rng, out_exponent=1.1)
        degrees = {}
        for u, _ in edges:
            degrees[u] = degrees.get(u, 0) + 1
        top = max(degrees.values())
        mean = sum(degrees.values()) / len(degrees)
        assert top > 5 * mean

    def test_duplicate_stream_contains_every_distinct_edge(self):
        rng = random.Random(3)
        distinct = powerlaw_edge_set(100, 400, rng)
        stream = duplicate_stream(distinct, 2000, rng)
        assert len(stream) == 2000
        assert set(stream) == set(distinct)

    def test_duplicate_stream_requires_enough_arrivals(self):
        rng = random.Random(3)
        distinct = [(1, 2), (2, 3)]
        with pytest.raises(ValueError):
            duplicate_stream(distinct, 1, rng)

    def test_dense_edge_set_density(self):
        rng = random.Random(4)
        edges = dense_edge_set(50, 0.9, rng)
        possible = 50 * 49
        assert 0.8 * possible <= len(edges) <= possible
        assert len(set(edges)) == len(edges)

    def test_regular_edge_set_constant_out_degree(self):
        rng = random.Random(5)
        edges = regular_edge_set(100, 6, rng)
        degrees = {}
        for u, _ in edges:
            degrees[u] = degrees.get(u, 0) + 1
        assert set(degrees.values()) == {6}
        assert len(degrees) == 100

    def test_regular_edge_set_validates_degree(self):
        with pytest.raises(ValueError):
            regular_edge_set(5, 5, random.Random(1))

    def test_generators_are_deterministic_per_seed(self):
        first = powerlaw_edge_set(100, 500, random.Random(42))
        second = powerlaw_edge_set(100, 500, random.Random(42))
        assert first == second


class TestEdgeStream:
    def test_statistics_and_dedup(self):
        stream = EdgeStream("toy", [(1, 2), (1, 2), (2, 3)])
        stats = stream.statistics()
        assert stats.num_edges == 3
        assert stats.num_edges_dedup == 2
        assert stats.has_duplicates is True
        assert stats.num_nodes == 3
        distinct = stream.deduplicated()
        assert list(distinct) == [(1, 2), (2, 3)]
        assert distinct.statistics().has_duplicates is False

    def test_prefix_sample_shuffle(self):
        stream = EdgeStream("toy", [(i, i + 1) for i in range(100)])
        assert len(stream.prefix(10)) == 10
        assert len(stream.sample(10, seed=1)) == 10
        shuffled = stream.shuffled(seed=1)
        assert sorted(shuffled) == sorted(stream)
        assert list(shuffled) != list(stream)

    def test_indexing_and_slicing(self):
        stream = EdgeStream("toy", [(1, 2), (3, 4), (5, 6)])
        assert stream[0] == (1, 2)
        assert list(stream[1:]) == [(3, 4), (5, 6)]

    def test_statistics_row_keys(self):
        row = EdgeStream("toy", [(1, 2)]).statistics().as_row()
        assert {"nodes", "edges", "edges_dedup", "avg_degree", "max_degree"} <= set(row)


class TestTable4Profiles:
    def test_all_seven_datasets_present(self):
        assert set(DATASET_ORDER) == set(TABLE4_PROFILES)
        assert len(DATASET_ORDER) == 7

    def test_published_rows_match_paper_values(self):
        caida = TABLE4_PROFILES["CAIDA"]
        assert caida.weighted is True
        assert caida.num_edges_dedup == 850_000
        dense = TABLE4_PROFILES["DenseGraph"]
        assert dense.edge_density == pytest.approx(0.90)
        sparse = TABLE4_PROFILES["SparseGraph"]
        assert sparse.avg_degree == pytest.approx(6.0)

    def test_unknown_dataset_raises(self):
        with pytest.raises(KeyError):
            dataset_profile("NoSuchDataset")

    @pytest.mark.parametrize("name", DATASET_ORDER)
    def test_scaled_streams_match_profile_shape(self, name):
        profile = dataset_profile(name)
        stream = load_dataset(name)
        stats = stream.statistics()
        assert stats.has_duplicates == profile.weighted
        assert stats.num_edges_dedup >= 32
        # Average degree of the stand-in is within a factor of 3 of Table IV.
        assert stats.average_degree == pytest.approx(profile.avg_degree, rel=2.0)
        if profile.kind == "dense":
            assert stats.edge_density > 0.5
        else:
            assert stats.edge_density < 0.1

    def test_load_dataset_is_cached(self):
        assert load_dataset("CAIDA") is load_dataset("CAIDA")
        assert load_dataset("CAIDA", seed=2) is not load_dataset("CAIDA")

    def test_custom_scale_shrinks_stream(self):
        default = load_dataset("NotreDame")
        smaller = load_dataset("NotreDame", scale=1000)
        assert len(smaller) < len(default)


@settings(max_examples=20, deadline=None)
@given(
    num_nodes=st.integers(min_value=2, max_value=60),
    num_edges=st.integers(min_value=1, max_value=300),
    seed=st.integers(min_value=0, max_value=1000),
)
def test_powerlaw_generator_properties(num_nodes, num_edges, seed):
    """Property: generated edge sets are distinct, loop-free and in range."""
    edges = powerlaw_edge_set(num_nodes, num_edges, random.Random(seed))
    assert len(edges) == len(set(edges))
    assert len(edges) <= num_nodes * (num_nodes - 1)
    for u, v in edges:
        assert 0 <= u < num_nodes
        assert 0 <= v < num_nodes
        assert u != v
