"""Tests for the benchmark harness drivers and reporting helpers."""

import pytest

from repro.bench import (
    ANALYTICS_TASKS,
    OURS,
    OURS_FAMILY,
    SCHEMES,
    build_cuckoograph_for_stream,
    build_store,
    dataset_stream,
    format_table,
    geometric_mean,
    memory_series_table,
    run_basic_tasks,
    run_denylist_ablation,
    run_memory_curve,
    run_parameter_point,
    speedup_versus,
)
from repro.core import CuckooGraphConfig, WeightedCuckooGraph, CuckooGraph
from repro.datasets import EdgeStream
from repro.persist import PersistentStore
from repro.service import GraphClient


@pytest.fixture(scope="module")
def tiny_stream() -> EdgeStream:
    return dataset_stream("CAIDA").prefix(1500)


class TestStoreFactories:
    def test_every_scheme_buildable(self):
        for scheme in SCHEMES:
            store = build_store(scheme)
            try:
                store.insert_edge(1, 2)
                assert store.has_edge(1, 2)
            finally:
                # The served schemes own a dispatcher thread (and a WAL dir).
                store.close()

    def test_unknown_scheme_rejected(self):
        with pytest.raises(KeyError):
            build_store("Neo4j")

    def test_config_only_applies_to_ours(self):
        config = CuckooGraphConfig(d=4)
        assert build_store(OURS, config).config.d == 4

    @pytest.mark.parametrize("scheme", sorted(OURS_FAMILY))
    def test_config_reaches_the_cuckoographs_of_every_ours_scheme(self, scheme):
        store = build_store(scheme, CuckooGraphConfig(d=4))
        try:
            inner = store
            if isinstance(inner, GraphClient):
                inner = inner.service.store
            if isinstance(inner, PersistentStore):
                inner = inner.store
            assert inner.config.d == 4
            for shard in getattr(inner, "shards", ()):
                if isinstance(shard, CuckooGraph):  # a tiered store's hot tier
                    assert shard.config.d == 4
        finally:
            store.close()

    def test_weighted_variant_selected_for_duplicate_streams(self):
        duplicated = EdgeStream("dup", [(1, 2), (1, 2)])
        distinct = EdgeStream("plain", [(1, 2), (2, 3)])
        assert isinstance(build_cuckoograph_for_stream(duplicated), WeightedCuckooGraph)
        assert isinstance(build_cuckoograph_for_stream(distinct), CuckooGraph)


class TestBasicTaskDriver:
    def test_rows_have_both_views(self, tiny_stream):
        results = run_basic_tasks(OURS, "CAIDA", tiny_stream)
        assert set(results) == {"insert", "query", "delete"}
        for result in results.values():
            row = result.as_row()
            assert row["mops"] > 0
            assert row["accesses_per_op"] > 0
            assert result.modelled_mops > 0

    def test_operation_counts_match_stream(self, tiny_stream):
        results = run_basic_tasks("Spruce", "CAIDA", tiny_stream)
        assert results["insert"].operations == len(tiny_stream)
        assert results["query"].operations == len(tiny_stream.deduplicated())

    def test_memory_curve_monotone_sampling(self, tiny_stream):
        points = run_memory_curve("Spruce", "CAIDA", tiny_stream, samples=4)
        inserted = [point.inserted for point in points]
        assert inserted == sorted(inserted)
        assert points[-1].inserted == len(tiny_stream.deduplicated())
        assert all(point.memory_bytes > 0 for point in points)


class TestAnalyticsDrivers:
    @pytest.mark.parametrize("task", sorted(ANALYTICS_TASKS))
    def test_each_task_runs_on_ours(self, task, tiny_stream):
        driver = ANALYTICS_TASKS[task]
        result = driver(OURS, "CAIDA", tiny_stream)
        assert result.task == task
        assert result.seconds >= 0
        assert result.scheme == OURS
        assert result.as_row()["dataset"] == "CAIDA"


class TestParameterAndAblation:
    def test_parameter_point_series(self, tiny_stream):
        outcome = run_parameter_point(CuckooGraphConfig(d=4), tiny_stream, checkpoints=3)
        assert len(outcome["insert_series"]) >= 3
        assert outcome["insert_series"][-1][0] == len(tiny_stream)
        assert outcome["query_mops"] > 0
        assert outcome["final_memory_bytes"] > 0

    def test_denylist_ablation_has_both_arms(self, tiny_stream):
        outcome = run_denylist_ablation(tiny_stream.prefix(800))
        assert set(outcome) == {"DL", "DL-free"}
        assert outcome["DL"]["config"].use_denylist is True
        assert outcome["DL-free"]["config"].use_denylist is False


class TestReporting:
    def test_format_table_alignment_and_title(self):
        rows = [{"scheme": "Ours", "mops": 1.5}, {"scheme": "Spruce", "mops": 0.5}]
        text = format_table(rows, title="Figure X")
        assert text.splitlines()[0] == "Figure X"
        assert "Ours" in text and "Spruce" in text

    def test_format_table_empty(self):
        assert "(no rows)" in format_table([])

    def test_speedup_versus_directions(self):
        throughput = {"Ours": 10.0, "Spruce": 2.0}
        runtime = {"Ours": 1.0, "Spruce": 5.0}
        assert speedup_versus(throughput)["Spruce"] == pytest.approx(5.0)
        assert speedup_versus(runtime, higher_is_better=False)["Spruce"] == pytest.approx(5.0)
        with pytest.raises(KeyError):
            speedup_versus({"Spruce": 1.0})

    def test_geometric_mean(self):
        assert geometric_mean([1.0, 4.0]) == pytest.approx(2.0)
        assert geometric_mean([]) == 0.0

    def test_memory_series_table(self, tiny_stream):
        points = run_memory_curve(OURS, "CAIDA", tiny_stream.prefix(300), samples=2)
        text = memory_series_table(points, title="Figure 9(a)")
        assert "memory_bytes" in text
