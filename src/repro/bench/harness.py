"""Shared drivers behind every benchmark (one per table / figure).

The paper's evaluation repeats a small number of experimental templates over
datasets and schemes: insert-all / query-all / delete-all throughput
(Figures 6-8), memory-versus-insertions curves (Figure 9), analytics running
time on top-degree subgraphs (Figures 10-16), parameter sweeps (Figures 2-4),
the denylist ablation (Figure 5) and the two database integrations
(Figures 17-18).  This module implements those templates once, so each file
under ``benchmarks/`` is a thin parameterisation that regenerates one figure.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from ..analytics import (
    TraversalEngine,
    all_local_clustering_coefficients,
    betweenness_centrality,
    bfs,
    count_triangles_of_node,
    dijkstra,
    pagerank,
    strongly_connected_components,
    top_degree_nodes,
    top_degree_subgraph,
)
from ..baselines import COMPETITORS
from ..core import CuckooGraph, CuckooGraphConfig, ShardedCuckooGraph, WeightedCuckooGraph
from ..datasets import EdgeStream, load_dataset
from ..interfaces import DynamicGraphStore

#: Name the paper uses for CuckooGraph in every figure legend.
OURS = "Ours"

#: The sharded scale-out front-end (this reproduction's extension, not a
#: scheme from the paper); four shards is the default deployment unit.
SHARDED = "Ours-Sharded"

#: Default shard count used when the sharded scheme is built by name.
DEFAULT_SHARDS = 4

#: Schemes that *are* CuckooGraph (single-instance and sharded).  The
#: "CuckooGraph beats each competitor" shape checks iterate the complement of
#: this set, so registering another of our own variants never turns it into a
#: competitor.
OURS_FAMILY = frozenset({OURS, SHARDED})

#: Scheme name -> store factory, in the order the figures list them.
#: WBI's bucket matrix is sized so that its edges-per-bucket load on the
#: scaled datasets is in the same regime as the paper's full-size runs
#: (many edges hang off every bucket); a matrix sized for the scaled edge
#: counts would hide exactly the redundancy the paper measures.
SCHEMES: dict[str, Callable[[], DynamicGraphStore]] = {
    "LiveGraph": COMPETITORS["LiveGraph"],
    "Spruce": COMPETITORS["Spruce"],
    "Sortledton": COMPETITORS["Sortledton"],
    OURS: CuckooGraph,
    SHARDED: lambda: ShardedCuckooGraph(num_shards=DEFAULT_SHARDS),
    "WBI": lambda: COMPETITORS["WBI"](matrix_size=16),
}


def build_store(scheme: str, config: Optional[CuckooGraphConfig] = None) -> DynamicGraphStore:
    """Instantiate a scheme by figure-legend name.

    ``config`` only applies to the CuckooGraph family (the parameter-sweep
    figures); the sharded front-end passes it down to every shard.
    """
    if scheme not in SCHEMES:
        raise KeyError(f"unknown scheme {scheme!r}; expected one of {list(SCHEMES)}")
    if config is not None:
        if scheme == OURS:
            return CuckooGraph(config)
        if scheme == SHARDED:
            return ShardedCuckooGraph(num_shards=DEFAULT_SHARDS, config=config)
    return SCHEMES[scheme]()


def build_cuckoograph_for_stream(
    stream: EdgeStream, config: Optional[CuckooGraphConfig] = None
) -> DynamicGraphStore:
    """CuckooGraph variant matching the stream: weighted when duplicates exist.

    Mirrors the paper's setup note: "whether the basic or extended version of
    CuckooGraph is used depends on whether the dataset has repeated edges".
    """
    if stream.statistics().has_duplicates:
        return WeightedCuckooGraph(config) if config is not None else WeightedCuckooGraph()
    return CuckooGraph(config) if config is not None else CuckooGraph()


def _store_for_stream(scheme: str, stream: EdgeStream,
                      config: Optional[CuckooGraphConfig] = None) -> DynamicGraphStore:
    """The store one Figures 6-16 cell drives.

    ``Ours`` follows the stream's duplicates
    (:func:`build_cuckoograph_for_stream`); every other scheme is built by
    name.
    """
    if scheme == OURS:
        return build_cuckoograph_for_stream(stream, config)
    return build_store(scheme)


# --------------------------------------------------------------------- #
# Result records
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class ThroughputResult:
    """Throughput of one (scheme, dataset, operation) cell of Figures 6-8.

    Two views are reported for every cell:

    * ``mops`` -- wall-clock million operations per second of the pure-Python
      implementation (absolute values are not comparable to the paper's C++
      numbers);
    * ``accesses_per_op`` -- modelled memory accesses per operation, the
      quantity the paper's own analysis argues about.  The figure *shape*
      (which scheme wins, roughly by how much) is read from this column; see
      README, *Running the benchmarks*.
    """

    scheme: str
    dataset: str
    operation: str
    operations: int
    seconds: float
    accesses: int = 0

    @property
    def mops(self) -> float:
        """Million operations per second (wall clock)."""
        if self.seconds <= 0:
            return float("inf")
        return self.operations / self.seconds / 1e6

    @property
    def accesses_per_op(self) -> float:
        """Modelled memory accesses per operation."""
        if self.operations == 0:
            return 0.0
        return self.accesses / self.operations

    @property
    def modelled_mops(self) -> float:
        """Throughput of an access-bound execution (operations per access unit).

        Expressed in "million operations per million accesses" so that
        relative factors between schemes mirror the paper's throughput plots.
        """
        if self.accesses == 0:
            return float("inf")
        return self.operations / self.accesses

    def as_row(self) -> dict[str, object]:
        return {
            "scheme": self.scheme,
            "dataset": self.dataset,
            "operation": self.operation,
            "operations": self.operations,
            "seconds": round(self.seconds, 6),
            "mops": round(self.mops, 6),
            "accesses_per_op": round(self.accesses_per_op, 3),
            "modelled_mops": round(self.modelled_mops, 4),
        }


@dataclass(frozen=True)
class RunningTimeResult:
    """Running time of one (scheme, dataset) cell of Figures 10-16.

    Alongside the paper's wall-clock seconds, every cell reports how the
    frontier-batch engine drove the store during the timed kernel phase:

    * ``batch_calls`` -- batched store round-trips issued (``successors_many``
      expansions plus ``has_edges`` probe batches); the whole point of the
      engine is that this number is tiny compared to the node/edge count;
    * ``accesses`` -- modelled memory accesses the store performed, the
      quantity the paper's own analysis argues about.
    """

    scheme: str
    dataset: str
    task: str
    seconds: float
    detail: str = ""
    batch_calls: int = 0
    accesses: int = 0

    def as_row(self) -> dict[str, object]:
        return {
            "scheme": self.scheme,
            "dataset": self.dataset,
            "task": self.task,
            "seconds": round(self.seconds, 6),
            "batch_calls": self.batch_calls,
            "accesses": self.accesses,
            "detail": self.detail,
        }


@dataclass(frozen=True)
class MemoryPoint:
    """One sample of a Figure 9 memory-versus-insertions curve."""

    scheme: str
    dataset: str
    inserted: int
    memory_bytes: int

    def as_row(self) -> dict[str, object]:
        return {
            "scheme": self.scheme,
            "dataset": self.dataset,
            "inserted": self.inserted,
            "memory_bytes": self.memory_bytes,
        }


# --------------------------------------------------------------------- #
# Basic-task drivers (Figures 6, 7, 8)
# --------------------------------------------------------------------- #


def _timed(operation: Callable[[], None]) -> float:
    start = time.perf_counter()
    operation()
    return time.perf_counter() - start


def run_insertion(store: DynamicGraphStore, stream: Sequence[tuple[int, int]],
                  scheme: str, dataset: str) -> ThroughputResult:
    """Insert every stream arrival and report the average insertion throughput."""
    edges = list(stream)
    before = store.accesses
    seconds = _timed(lambda: [store.insert_edge(u, v) for u, v in edges])
    return ThroughputResult(scheme, dataset, "insert", len(edges), seconds,
                            store.accesses - before)


def run_query(store: DynamicGraphStore, stream: Sequence[tuple[int, int]],
              scheme: str, dataset: str) -> ThroughputResult:
    """Query every stream edge and report the average query throughput."""
    edges = list(stream)
    before = store.accesses
    seconds = _timed(lambda: [store.has_edge(u, v) for u, v in edges])
    return ThroughputResult(scheme, dataset, "query", len(edges), seconds,
                            store.accesses - before)


def run_deletion(store: DynamicGraphStore, stream: Sequence[tuple[int, int]],
                 scheme: str, dataset: str) -> ThroughputResult:
    """Delete every stream edge one by one and report the deletion throughput."""
    edges = list(stream)
    before = store.accesses
    seconds = _timed(lambda: [store.delete_edge(u, v) for u, v in edges])
    return ThroughputResult(scheme, dataset, "delete", len(edges), seconds,
                            store.accesses - before)


def run_basic_tasks(
    scheme: str,
    dataset: str,
    stream: EdgeStream,
    config: Optional[CuckooGraphConfig] = None,
) -> dict[str, ThroughputResult]:
    """Figure 6/7/8 cell for one scheme on one dataset.

    Follows the paper's methodology: insert the full (possibly duplicated)
    stream, query every inserted edge, then delete edges one by one.
    """
    store = _store_for_stream(scheme, stream, config)
    insertion = run_insertion(store, stream.edges, scheme, dataset)
    distinct = stream.deduplicated()
    query = run_query(store, distinct.edges, scheme, dataset)
    deletion = run_deletion(store, distinct.edges, scheme, dataset)
    store.close()
    return {"insert": insertion, "query": query, "delete": deletion}


# --------------------------------------------------------------------- #
# Memory-curve driver (Figure 9)
# --------------------------------------------------------------------- #


def run_memory_curve(
    scheme: str,
    dataset: str,
    stream: EdgeStream,
    samples: int = 8,
    config: Optional[CuckooGraphConfig] = None,
) -> list[MemoryPoint]:
    """Insert the de-duplicated stream and sample the modelled memory footprint."""
    distinct = stream.deduplicated().edges
    store = build_store(scheme, config)
    sample_every = max(1, len(distinct) // samples)
    points: list[MemoryPoint] = []
    for index, (u, v) in enumerate(distinct, start=1):
        store.insert_edge(u, v)
        if index % sample_every == 0 or index == len(distinct):
            points.append(MemoryPoint(scheme, dataset, index, store.memory_bytes()))
    store.close()
    return points


# --------------------------------------------------------------------- #
# Analytics drivers (Figures 10-16)
# --------------------------------------------------------------------- #


def _load_full_graph(scheme: str, stream: EdgeStream) -> DynamicGraphStore:
    store = _store_for_stream(scheme, stream)
    store.insert_edges(stream)
    return store


def _engine_result(scheme: str, dataset: str, task: str, seconds: float, detail: str,
                   engine: TraversalEngine, accesses_before: int) -> RunningTimeResult:
    """Assemble a Figures 10-16 cell with the engine's batch accounting."""
    return RunningTimeResult(
        scheme, dataset, task, seconds, detail,
        batch_calls=engine.batch_calls,
        accesses=engine.store.accesses - accesses_before,
    )


def run_bfs_task(scheme: str, dataset: str, stream: EdgeStream,
                 root_count: int = 5) -> RunningTimeResult:
    """Figure 10: average BFS time from the highest-total-degree roots.

    The traversals run through the frontier-batch engine, so the cell also
    reports how many batched store calls the BFS sweeps needed.
    """
    store = _load_full_graph(scheme, stream)
    roots = top_degree_nodes(store, root_count)
    engine = TraversalEngine(store)
    accesses_before = store.accesses
    start = time.perf_counter()
    visited_total = sum(len(bfs(store, root, engine=engine)) for root in roots)
    seconds = (time.perf_counter() - start) / max(1, len(roots))
    result = _engine_result(scheme, dataset, "BFS", seconds, f"visited={visited_total}",
                            engine, accesses_before)
    store.close()
    return result


def run_sssp_task(scheme: str, dataset: str, stream: EdgeStream,
                  subgraph_nodes: int = 200, source_count: int = 10) -> RunningTimeResult:
    """Figure 11: average Dijkstra time from the 10 highest-degree sources."""
    store = _load_full_graph(scheme, stream)
    subgraph, top_nodes = top_degree_subgraph(store, subgraph_nodes)
    sources = top_nodes[:source_count]
    engine = TraversalEngine(subgraph)
    accesses_before = subgraph.accesses
    start = time.perf_counter()
    reached = 0
    for source in sources:
        reached += len(dijkstra(subgraph, source, engine=engine))
    seconds = (time.perf_counter() - start) / max(1, len(sources))
    result = _engine_result(scheme, dataset, "SSSP", seconds, f"reached={reached}",
                            engine, accesses_before)
    subgraph.close()
    store.close()
    return result


def run_triangle_task(scheme: str, dataset: str, stream: EdgeStream,
                      node_count: int = 5) -> RunningTimeResult:
    """Figure 12: triangle counting around the highest-degree nodes."""
    store = _load_full_graph(scheme, stream)
    nodes = top_degree_nodes(store, node_count)
    engine = TraversalEngine(store)
    accesses_before = store.accesses
    start = time.perf_counter()
    triangles = sum(count_triangles_of_node(store, node, engine=engine) for node in nodes)
    seconds = time.perf_counter() - start
    result = _engine_result(scheme, dataset, "TC", seconds, f"triangles={triangles}",
                            engine, accesses_before)
    store.close()
    return result


def run_cc_task(scheme: str, dataset: str, stream: EdgeStream,
                subgraph_nodes: int = 200) -> RunningTimeResult:
    """Figure 13: Tarjan connected components on the top-degree subgraph."""
    store = _load_full_graph(scheme, stream)
    subgraph, _ = top_degree_subgraph(store, subgraph_nodes)
    engine = TraversalEngine(subgraph)
    accesses_before = subgraph.accesses
    start = time.perf_counter()
    components = strongly_connected_components(subgraph, engine=engine)
    seconds = time.perf_counter() - start
    result = _engine_result(scheme, dataset, "CC", seconds,
                            f"components={len(components)}", engine, accesses_before)
    subgraph.close()
    store.close()
    return result


def run_pagerank_task(scheme: str, dataset: str, stream: EdgeStream,
                      subgraph_nodes: int = 200, iterations: int = 100) -> RunningTimeResult:
    """Figure 14: 100 PageRank iterations on the top-degree subgraph."""
    store = _load_full_graph(scheme, stream)
    subgraph, _ = top_degree_subgraph(store, subgraph_nodes)
    engine = TraversalEngine(subgraph)
    accesses_before = subgraph.accesses
    start = time.perf_counter()
    scores = pagerank(subgraph, iterations=iterations, engine=engine)
    seconds = time.perf_counter() - start
    result = _engine_result(scheme, dataset, "PR", seconds, f"nodes={len(scores)}",
                            engine, accesses_before)
    subgraph.close()
    store.close()
    return result


def run_bc_task(scheme: str, dataset: str, stream: EdgeStream,
                subgraph_nodes: int = 120) -> RunningTimeResult:
    """Figure 15: Brandes betweenness centrality on the top-degree subgraph."""
    store = _load_full_graph(scheme, stream)
    subgraph, _ = top_degree_subgraph(store, subgraph_nodes)
    engine = TraversalEngine(subgraph)
    accesses_before = subgraph.accesses
    start = time.perf_counter()
    scores = betweenness_centrality(subgraph, engine=engine)
    seconds = time.perf_counter() - start
    result = _engine_result(scheme, dataset, "BC", seconds, f"nodes={len(scores)}",
                            engine, accesses_before)
    subgraph.close()
    store.close()
    return result


def run_lcc_task(scheme: str, dataset: str, stream: EdgeStream,
                 subgraph_nodes: int = 150) -> RunningTimeResult:
    """Figure 16: local clustering coefficient on the top-degree subgraph."""
    store = _load_full_graph(scheme, stream)
    subgraph, _ = top_degree_subgraph(store, subgraph_nodes)
    engine = TraversalEngine(subgraph)
    accesses_before = subgraph.accesses
    start = time.perf_counter()
    coefficients = all_local_clustering_coefficients(subgraph, engine=engine)
    seconds = time.perf_counter() - start
    result = _engine_result(scheme, dataset, "LCC", seconds,
                            f"nodes={len(coefficients)}", engine, accesses_before)
    subgraph.close()
    store.close()
    return result


#: Task name -> driver, used by the analytics benchmarks and examples.
ANALYTICS_TASKS: dict[str, Callable[..., RunningTimeResult]] = {
    "BFS": run_bfs_task,
    "SSSP": run_sssp_task,
    "TC": run_triangle_task,
    "CC": run_cc_task,
    "PR": run_pagerank_task,
    "BC": run_bc_task,
    "LCC": run_lcc_task,
}


# --------------------------------------------------------------------- #
# Parameter sweeps and ablation (Figures 2-5)
# --------------------------------------------------------------------- #


def run_parameter_point(
    config: CuckooGraphConfig,
    stream: EdgeStream,
    dataset: str = "CAIDA",
    checkpoints: int = 5,
) -> dict[str, object]:
    """Throughput and memory for one CuckooGraph configuration (Figures 2-4).

    The paper reports insertion/query throughput at increasing numbers of
    inserted items plus the memory-usage curve; this driver returns the same
    series for one parameter value.
    """
    edges = list(stream)
    store = build_cuckoograph_for_stream(stream, config)
    checkpoint_size = max(1, len(edges) // checkpoints)
    insert_series: list[tuple[int, float]] = []
    memory_series: list[tuple[int, int]] = []
    inserted = 0
    for chunk_start in range(0, len(edges), checkpoint_size):
        chunk = edges[chunk_start:chunk_start + checkpoint_size]
        seconds = _timed(lambda: [store.insert_edge(u, v) for u, v in chunk])
        inserted += len(chunk)
        mops = len(chunk) / seconds / 1e6 if seconds > 0 else float("inf")
        insert_series.append((inserted, mops))
        memory_series.append((inserted, store.memory_bytes()))
    distinct = stream.deduplicated().edges
    query_seconds = _timed(lambda: [store.has_edge(u, v) for u, v in distinct])
    query_mops = len(distinct) / query_seconds / 1e6 if query_seconds > 0 else float("inf")
    return {
        "config": config,
        "dataset": dataset,
        "insert_series": insert_series,
        "query_mops": query_mops,
        "memory_series": memory_series,
        "final_memory_bytes": store.memory_bytes(),
    }


def run_denylist_ablation(stream: EdgeStream, dataset: str = "CAIDA") -> dict[str, dict]:
    """Figure 5: CuckooGraph with the DENYLIST versus expand-on-failure."""
    results: dict[str, dict] = {}
    for label, use_denylist in (("DL", True), ("DL-free", False)):
        config = CuckooGraphConfig(use_denylist=use_denylist)
        results[label] = run_parameter_point(config, stream, dataset)
    return results


# --------------------------------------------------------------------- #
# Convenience wrappers used by benchmarks
# --------------------------------------------------------------------- #


def dataset_stream(name: str, scale: Optional[int] = None, seed: int = 1) -> EdgeStream:
    """Load the scaled synthetic stand-in for a named dataset."""
    return load_dataset(name, scale=scale, seed=seed)
