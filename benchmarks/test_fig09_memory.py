"""Figure 9(a-g): modelled memory usage versus number of inserted items."""

from repro.bench import OURS, SCHEMES, format_table, run_memory_curve
from repro.datasets import DATASET_ORDER

from .conftest import bench_stream, benchmark_callable, write_report


def test_fig09_memory_curves(benchmark):
    """Regenerate the per-dataset memory curves and check CuckooGraph's rank."""
    rows = []
    finals: dict[str, dict[str, int]] = {}
    for dataset in DATASET_ORDER:
        stream = bench_stream(dataset)
        finals[dataset] = {}
        for scheme in SCHEMES:
            points = run_memory_curve(scheme, dataset, stream, samples=4)
            finals[dataset][scheme] = points[-1].memory_bytes
            rows.extend(point.as_row() for point in points)
    write_report(
        "fig09_memory",
        format_table(rows, columns=["dataset", "scheme", "inserted", "memory_bytes"],
                     title="Memory usage vs inserted items (modelled bytes)"),
    )

    # Shape check: CuckooGraph must use less memory than the adjacency-list /
    # sorted-block schemes on most datasets.  The Spruce and WBI comparisons
    # are *not* asserted here: at scaled-down sizes with dense synthetic node
    # identifiers their index overheads (vEB bit vectors over the identifier
    # space, the K x K bucket matrix) all but vanish, which flatters them
    # relative to the paper's full-scale runs -- see README, *Running the
    # benchmarks*.
    for competitor in ("LiveGraph", "Sortledton"):
        wins = sum(
            1 for dataset in DATASET_ORDER
            if finals[dataset][OURS] <= finals[dataset][competitor]
        )
        assert wins >= len(DATASET_ORDER) // 2 + 1, (
            f"CuckooGraph should be smaller than {competitor} on most datasets"
        )

    stream = bench_stream("CAIDA")
    benchmark_callable(benchmark, run_memory_curve, OURS, "CAIDA", stream, 4)
