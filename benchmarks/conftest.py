"""Shared fixtures and helpers for the per-figure benchmarks.

Every file under ``benchmarks/`` regenerates one table or figure of the
paper's evaluation section (see README, *Running the benchmarks*).
Each benchmark

* drives the same scaled synthetic datasets through the scheme(s) the figure
  compares,
* prints the figure's rows/series and appends them to
  ``benchmarks/results/<figure>.txt`` so a full run leaves a reviewable
  record, and
* registers one representative operation with ``pytest-benchmark`` so the
  usual ``--benchmark-only`` machinery reports wall-clock numbers.

The scaled workloads are kept small enough for the whole suite to run in a
few minutes of pure Python; the *shape* conclusions are drawn from the
modelled memory accesses and memory bytes, as explained in README,
*Running the benchmarks*.
"""

from __future__ import annotations

import pathlib
from typing import Callable

import pytest

from repro.bench import (
    OURS,
    OURS_FAMILY,
    SCHEMES,
    dataset_stream,
    format_table,
    run_basic_tasks,
    write_bench_json,
)
from repro.datasets import DATASET_ORDER, EdgeStream

#: Directory containing the benchmark suite (used to auto-mark its tests).
BENCH_DIR = pathlib.Path(__file__).parent

#: Whether this run may overwrite existing result files (``--bench-update``).
#: Without the flag a result file is only written when it does not exist yet:
#: the timing columns change on every run, and unconditional rewrites used to
#: churn hundreds of pure-noise diff lines under ``benchmarks/results/``.
_BENCH_UPDATE = False


def pytest_addoption(parser):
    parser.addoption(
        "--bench-update",
        action="store_true",
        default=False,
        help="rewrite benchmarks/results/ tables and BENCH_*.json files "
             "(without this flag, existing timing-bearing files are left "
             "untouched so result diffs reflect real changes)",
    )


def pytest_configure(config):
    global _BENCH_UPDATE
    _BENCH_UPDATE = config.getoption("--bench-update", default=False)


def pytest_collection_modifyitems(items):
    """Tag every test in this directory with the ``benchmark`` marker.

    CI collects the whole suite but deselects the figure regenerations with
    ``-m "not benchmark"``; local full runs (the tier-1 command) still
    execute them.
    """
    for item in items:
        if BENCH_DIR in pathlib.Path(str(item.fspath)).parents:
            item.add_marker(pytest.mark.benchmark)

#: Upper bound on stream arrivals per dataset for the benchmark runs.
#: The basic-task figures use a larger slice so that degree-dependent costs
#: (adjacency scans, log scans) are visible, as they are at the paper's scale.
BENCH_STREAM_LIMIT = 8000

#: Directory where each figure's printed rows are also written to disk.
RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def bench_stream(name: str, limit: int = BENCH_STREAM_LIMIT) -> EdgeStream:
    """The scaled stand-in stream for ``name``, truncated for benchmark speed."""
    stream = dataset_stream(name)
    return stream.prefix(limit) if len(stream) > limit else stream


def write_report(figure: str, text: str) -> None:
    """Print a figure's rows; persist them only when allowed to.

    The rows always print (a benchmark run is reviewable from its output);
    the ``benchmarks/results/<figure>.txt`` file is written when it does not
    exist yet or the run passed ``--bench-update``, so committed tables stop
    churning on every rerun's timing noise.
    """
    print(f"\n{text}\n")
    path = RESULTS_DIR / f"{figure}.txt"
    if _BENCH_UPDATE or not path.exists():
        RESULTS_DIR.mkdir(exist_ok=True)
        path.write_text(text + "\n")


def write_bench_payload(figure: str, payload: dict) -> None:
    """Machine-readable counterpart of :func:`write_report`, same gating.

    Writes ``benchmarks/results/BENCH_<figure>.json`` via
    :func:`repro.bench.write_bench_json` when the file is missing or the run
    passed ``--bench-update``.
    """
    if _BENCH_UPDATE or not (RESULTS_DIR / f"BENCH_{figure}.json").exists():
        write_bench_json(figure, payload, RESULTS_DIR)


@pytest.fixture(scope="session")
def basic_task_results() -> dict[str, dict[str, dict]]:
    """Figures 6-8 share one pass: dataset -> scheme -> {insert,query,delete}."""
    results: dict[str, dict[str, dict]] = {}
    for dataset in DATASET_ORDER:
        stream = bench_stream(dataset)
        results[dataset] = {
            scheme: run_basic_tasks(scheme, dataset, stream) for scheme in SCHEMES
        }
    return results


def operation_table(results: dict[str, dict[str, dict]], operation: str) -> str:
    """Render the Figure 6/7/8 rows for one operation."""
    rows = []
    for dataset, per_scheme in results.items():
        for scheme, ops in per_scheme.items():
            rows.append(ops[operation].as_row())
    return format_table(
        rows,
        columns=["dataset", "scheme", "operations", "mops", "accesses_per_op",
                 "modelled_mops"],
        title=f"{operation.capitalize()} throughput across datasets "
              f"(wall-clock Mops and modelled accesses/op)",
    )


def operation_payload(figure: str, results: dict[str, dict[str, dict]],
                      operation: str) -> dict:
    """Machine-readable rows for one Figure 6/7/8 operation table."""
    return {
        "figure": figure,
        "operation": operation,
        "rows": [
            per_scheme[scheme][operation].as_row()
            for dataset, per_scheme in results.items()
            for scheme in per_scheme
        ],
    }


def assert_ours_wins_majority(results: dict[str, dict[str, dict]], operation: str,
                              minimum_fraction: float = 0.5) -> None:
    """Shape check: CuckooGraph beats each competitor on most datasets.

    Schemes in ``OURS_FAMILY`` (the sharded front-end) are our own variants,
    not competitors, so they are excluded from the comparison.
    """
    for competitor in (scheme for scheme in SCHEMES if scheme not in OURS_FAMILY):
        wins = 0
        for dataset, per_scheme in results.items():
            ours = per_scheme[OURS][operation].accesses_per_op
            theirs = per_scheme[competitor][operation].accesses_per_op
            if ours <= theirs:
                wins += 1
        assert wins >= len(results) * minimum_fraction, (
            f"CuckooGraph should need fewer memory accesses than {competitor} for "
            f"{operation} on at least {minimum_fraction:.0%} of datasets (won {wins})"
        )


def benchmark_callable(benchmark, function: Callable, *args, **kwargs):
    """Register a representative operation with pytest-benchmark."""
    return benchmark.pedantic(function, args=args, kwargs=kwargs, rounds=3, iterations=1)


#: Smaller stream limit for the quadratic-ish analytics kernels (TC, BC, LCC).
ANALYTICS_STREAM_LIMIT = 1500


def run_analytics_figure(figure: str, task: str, benchmark,
                         stream_limit: int = ANALYTICS_STREAM_LIMIT,
                         **task_kwargs) -> list[dict]:
    """Shared driver for Figures 10-16: run one kernel for every scheme/dataset.

    Returns the report rows; also writes them to ``benchmarks/results`` and
    registers a CuckooGraph run on the CAIDA stand-in with pytest-benchmark.
    """
    from repro.bench import ANALYTICS_TASKS  # local import keeps conftest light

    driver = ANALYTICS_TASKS[task]
    rows = []
    for dataset in DATASET_ORDER:
        stream = bench_stream(dataset, stream_limit)
        for scheme in SCHEMES:
            result = driver(scheme, dataset, stream, **task_kwargs)
            rows.append(result.as_row())
    write_report(
        figure,
        format_table(rows,
                     columns=["dataset", "scheme", "task", "seconds", "batch_calls",
                              "accesses", "detail"],
                     title=f"Running time of {task} on every dataset and scheme "
                           f"(batched traversal engine)"),
    )
    # Every scheme must have been driven through the batch layer: the engine
    # issues at least one batched store call per cell.
    assert all(row["batch_calls"] >= 1 for row in rows)
    # Every cell must have completed with a non-negative running time.
    assert all(row["seconds"] >= 0 for row in rows)
    assert len(rows) == len(DATASET_ORDER) * len(SCHEMES)

    caida = bench_stream("CAIDA", stream_limit)
    benchmark.pedantic(driver, args=(OURS, "CAIDA", caida), kwargs=task_kwargs,
                       rounds=2, iterations=1)
    return rows
