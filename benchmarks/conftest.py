"""Shared fixtures and helpers for the per-figure benchmarks.

Every file under ``benchmarks/`` regenerates one table or figure of the
paper's evaluation section (see README, *Running the benchmarks*).
Each benchmark

* drives the same scaled synthetic datasets through the scheme(s) the figure
  compares,
* prints the figure's rows/series and writes them to
  ``benchmarks/results/<figure>.txt`` -- or, where that file is committed,
  checks its count columns against this run's (:data:`FIGURE_COUNTS`), and
* registers one representative operation with ``pytest-benchmark`` so the
  usual ``--benchmark-only`` machinery reports wall-clock numbers.

The scaled workloads are kept small enough for the whole suite to run in a
few minutes of pure Python; the *shape* conclusions are drawn from the
modelled memory accesses and memory bytes, as explained in README,
*Running the benchmarks*.
"""

from __future__ import annotations

import json
import pathlib
from typing import Callable, Optional

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
#: Without the flag a result file is only written when it does not exist yet,
#: and an existing one is compared on its count columns instead: the timing
#: columns change on every run, the counts must not.
_BENCH_UPDATE = False

#: The count columns of every committed report under ``benchmarks/results``,
#: compared row by row against a rerun that does not pass ``--bench-update``.
#: ``key`` names a row (and must match too), ``counts`` are the columns of a
#: row that must be reproduced exactly, and ``fields`` are the top-level
#: entries of a ``BENCH_*.json`` payload.  Timing columns -- Mops, seconds,
#: milliseconds and the speedups made of them -- are not listed.  ``None``
#: marks a report whose counts are not compared, for the reason given.
FIGURE_COUNTS: dict[str, Optional[dict[str, tuple[str, ...]]]] = {
    "ablation_design_choices": {
        "key": ("variant",),
        "counts": ("insert_accesses_per_op", "query_accesses_per_op",
                   "memory_bytes", "denylist_entries"),
    },
    "fig02_param_d": {"key": ("d",), "counts": ("memory_bytes",)},
    "fig03_param_g": {"key": ("G",), "counts": ("memory_bytes",)},
    "fig04_param_t": {"key": ("T",), "counts": ("memory_bytes",)},
    "fig05_denylist_ablation": {"key": ("variant",), "counts": ("memory_bytes",)},
    **{
        figure: {"key": ("dataset", "scheme"),
                 "counts": ("operations", "accesses_per_op", "modelled_mops")}
        for figure in ("fig06_insertion", "fig07_query", "fig08_deletion")
    },
    **{
        f"BENCH_{figure}": {"fields": ("figure", "operation"),
                            "key": ("dataset", "scheme"),
                            "counts": ("operations", "accesses_per_op", "modelled_mops")}
        for figure in ("fig06", "fig07", "fig08")
    },
    "fig06g_incremental_analytics": {"key": ("mutations",), "counts": ()},
    "BENCH_fig06g": {
        "fields": ("figure", "dataset", "nodes", "base_edges", "iterations",
                   "rounds_per_point", "top_k", "required_speedup",
                   "analytics_stats"),
        "key": ("mutations",),
        "counts": (),
    },
    # Open loop: requests served, replica reads and lag follow the host's
    # timing, and two runs of one commit differ in them.
    "BENCH_fig06h": None,
    "fig09_memory": {"key": ("dataset", "scheme"), "counts": ("inserted", "memory_bytes")},
    **{
        figure: {"key": ("dataset", "scheme", "task"),
                 "counts": ("batch_calls", "accesses", "detail")}
        for figure in ("fig10_bfs", "fig11_sssp", "fig12_triangle", "fig13_cc",
                       "fig14_pagerank", "fig15_bc", "fig16_lcc")
    },
    "fig17_redis": {"key": ("dataset",), "counts": ()},
    "fig18_neo4j": {"key": ("configuration",), "counts": ("pairs_found",)},
    "table2_transformation": {"key": ("step",), "counts": ("table_lengths",)},
    "table3_complexity": {
        "key": ("scheme",),
        "counts": ("accesses_per_query_deg32", "accesses_per_query_deg2048",
                   "growth_factor"),
    },
    "table4_datasets": {
        "key": ("dataset",),
        "counts": ("weighted", "paper_nodes", "paper_edges", "scaled_nodes",
                   "scaled_edges", "scaled_dedup", "scaled_avg_deg", "scaled_max_deg"),
    },
    "theorem_insert_cost": {
        "key": ("dataset",),
        "counts": ("edges", "placement_attempts_per_edge", "kicks_per_edge",
                   "expansions", "insert_failures"),
    },
}

#: Reports compared against their committed files in this session.
_COMPARED: list[str] = []


def pytest_addoption(parser):
    parser.addoption(
        "--bench-update",
        action="store_true",
        default=False,
        help="rewrite benchmarks/results/ tables and BENCH_*.json files "
             "(without this flag, existing files are not rewritten: their "
             "count columns are compared with this run's)",
    )


def pytest_configure(config):
    global _BENCH_UPDATE
    _BENCH_UPDATE = config.getoption("--bench-update", default=False)


def pytest_terminal_summary(terminalreporter):
    """Say which committed reports this run checked, and which it skipped."""
    if _COMPARED:
        skipped = ", ".join(name for name, spec in FIGURE_COUNTS.items() if spec is None)
        terminalreporter.write_line(
            f"figure counts: {len(_COMPARED)} reports equal the committed files "
            f"on every count column; not compared: {skipped}"
        )


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
    """Print a figure's rows; record them or check them against the record.

    The rows always print (a benchmark run is reviewable from its output).
    ``benchmarks/results/<figure>.txt`` is written when it does not exist
    yet or the run passed ``--bench-update``; otherwise the committed file's
    count columns (:data:`FIGURE_COUNTS`) must equal this run's, row by row.
    """
    print(f"\n{text}\n")
    path = RESULTS_DIR / f"{figure}.txt"
    if _BENCH_UPDATE or not path.exists():
        RESULTS_DIR.mkdir(exist_ok=True)
        path.write_text(text + "\n")
        return
    check_counts(figure, {"rows": table_rows(text)},
                 {"rows": table_rows(path.read_text())})


def write_bench_payload(figure: str, payload: dict) -> None:
    """Machine-readable counterpart of :func:`write_report`, same gating.

    Writes ``benchmarks/results/BENCH_<figure>.json`` via
    :func:`repro.bench.write_bench_json` when the file is missing or the run
    passed ``--bench-update``; otherwise compares the payload's declared
    fields and row counts with the committed file's.
    """
    path = RESULTS_DIR / f"BENCH_{figure}.json"
    if _BENCH_UPDATE or not path.exists():
        write_bench_json(figure, payload, RESULTS_DIR)
        return
    check_counts(path.stem, json.loads(json.dumps(payload)), json.loads(path.read_text()))


def table_rows(text: str) -> list[dict[str, str]]:
    """The rows of a :func:`repro.bench.format_table` table, cells stripped."""
    lines = text.strip("\n").splitlines()
    rule = next(at for at, line in enumerate(lines) if line and set(line) <= set("-+"))
    header = [cell.strip() for cell in lines[rule - 1].split(" | ")]
    return [dict(zip(header, (cell.strip() for cell in line.split(" | "))))
            for line in lines[rule + 1:]]


def check_counts(report: str, fresh: dict, committed: dict) -> None:
    """Fail, naming the report, row and column, where a count moved."""
    spec = FIGURE_COUNTS[report]
    if spec is None:
        return
    for field in spec.get("fields", ()):
        assert fresh.get(field) == committed.get(field), (
            f"{report}: field {field}: committed {committed.get(field)!r}, "
            f"this run {fresh.get(field)!r} (re-record with --bench-update)"
        )
    rows, recorded = fresh["rows"], committed["rows"]
    assert len(rows) == len(recorded), (
        f"{report}: {len(rows)} rows, committed {len(recorded)} "
        f"(re-record with --bench-update)"
    )
    for number, (row, old) in enumerate(zip(rows, recorded), 1):
        label = ", ".join(str(old.get(column)) for column in spec["key"])
        for column in spec["key"] + spec["counts"]:
            assert row.get(column) == old.get(column), (
                f"{report}: row {number} ({label}), column {column}: committed "
                f"{old.get(column)!r}, this run {row.get(column)!r} "
                f"(re-record with --bench-update)"
            )
    _COMPARED.append(report)


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
