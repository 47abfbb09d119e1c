"""Figure 6: insertion throughput of every scheme on the seven datasets."""

from repro.bench import OURS
from repro.core import CuckooGraph

from .conftest import (
    bench_stream,
    benchmark_callable,
    operation_payload,
    operation_table,
    write_bench_payload,
    write_report,
)


def test_fig06_insertion_throughput(benchmark, basic_task_results):
    """Regenerate the Figure 6 series and benchmark CuckooGraph insertion."""
    write_report("fig06_insertion", operation_table(basic_task_results, "insert"))
    write_bench_payload(
        "fig06", operation_payload("fig06_insertion", basic_task_results, "insert")
    )
    # Shape check: CuckooGraph needs the fewest modelled memory accesses per
    # insertion on the majority of datasets against the adjacency-list /
    # sorted-block / matrix schemes.  Against Spruce the access model shows
    # rough parity (ties within ~25%) rather than the paper's 33x -- that
    # factor comes from constant-cost effects (cache misses, allocation)
    # below the granularity of an access count; see README, *Running the
    # benchmarks*.
    for competitor in ("LiveGraph", "Sortledton", "WBI"):
        wins = sum(
            1 for dataset, per_scheme in basic_task_results.items()
            if per_scheme[OURS]["insert"].accesses_per_op
            <= per_scheme[competitor]["insert"].accesses_per_op
        )
        assert wins >= len(basic_task_results) * 0.5, competitor
    near_ties = sum(
        1 for dataset, per_scheme in basic_task_results.items()
        if per_scheme[OURS]["insert"].accesses_per_op
        <= per_scheme["Spruce"]["insert"].accesses_per_op * 1.25
    )
    assert near_ties >= len(basic_task_results) * 0.75

    edges = list(bench_stream("CAIDA").deduplicated())

    def insert_all():
        store = CuckooGraph()
        for u, v in edges:
            store.insert_edge(u, v)
        return store.num_edges

    assert benchmark_callable(benchmark, insert_all) == len(edges)
