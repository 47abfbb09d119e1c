"""Frontier-batch traversal engine shared by every analytics kernel.

The paper's Section V-E kernels exercise a store through two operations:
successor queries (frontier expansion) and edge queries (closure checks).
Driving those one call per node -- ``store.successors(u)`` inside the hot
loop -- forfeits the batch layer that every :class:`~repro.interfaces.\
DynamicGraphStore` now exposes and routes the sharded front-end one node at
a time, because a single-node call can only ever touch one shard.

:class:`TraversalEngine` is the single place the analytics layer talks to a
store in bulk:

* :meth:`expand` turns a *frontier* (any iterable of nodes) into a
  ``{node: successors}`` map with **one** ``successors_many`` call, so a
  sharded store sees whole per-shard groups and drains each with one bound
  method.
* :func:`materialize_adjacency` is the one-pass batched adjacency
  materializer of the whole-graph kernels (PageRank, betweenness
  centrality, both component kernels): one ``successors_many`` over the
  store's source nodes, so the store phase of those kernels is exactly one
  batch and a sink's empty list costs no probe; :func:`adjacency_universe`
  then gives their node set, with no second walk of the store.
* :meth:`probe_edges` answers a batch of edge-membership probes with one
  ``has_edges`` call (triangle counting and LCC pair checks).

The engine also keeps *batch-call accounting* (:attr:`expand_calls`,
:attr:`probe_calls`, :attr:`nodes_expanded`, :attr:`edges_probed`), which the
benchmark harness reports alongside the modelled memory accesses: the paper's
figures argue about accesses per operation, and the batch counts show how few
store round-trips the same traversal now needs.

Every kernel accepts an optional ``engine`` keyword so callers (the harness,
multi-root drivers) can share one engine across invocations and read a single
set of counters; when omitted, the kernel builds a private engine around the
store it was given.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..interfaces import DynamicGraphStore


class TraversalEngine:
    """Batch-first view of a :class:`~repro.interfaces.DynamicGraphStore`.

    Args:
        store: The store every batch is issued against.

    Attributes:
        expand_calls: Number of ``successors_many`` batches issued.
        nodes_expanded: Total distinct nodes across those batches.
        probe_calls: Number of ``has_edges`` batches issued.
        edges_probed: Total edge probes across those batches.

    Example:
        >>> from repro import CuckooGraph
        >>> graph = CuckooGraph()
        >>> graph.insert_edges([(1, 2), (1, 3), (2, 3)])
        3
        >>> engine = TraversalEngine(graph)
        >>> {u: sorted(vs) for u, vs in engine.expand([1, 2]).items()}
        {1: [2, 3], 2: [3]}
        >>> engine.expand_calls
        1
    """

    def __init__(self, store: DynamicGraphStore):
        self.store = store
        self.expand_calls = 0
        self.nodes_expanded = 0
        self.probe_calls = 0
        self.edges_probed = 0

    # ------------------------------------------------------------------ #
    # Batched store operations
    # ------------------------------------------------------------------ #

    def expand(self, frontier: Iterable[int]) -> Dict[int, List[int]]:
        """Successor lists of a whole frontier in one batched store call.

        The result maps each distinct frontier node (first-occurrence order)
        to its successor list -- empty for nodes the store does not know --
        exactly as ``successors_many`` guarantees.  An empty frontier costs
        nothing and returns ``{}``.
        """
        nodes = list(dict.fromkeys(frontier))
        if not nodes:
            return {}
        self.expand_calls += 1
        self.nodes_expanded += len(nodes)
        return self.store.successors_many(nodes)

    #: Probe-batch chunk size: large enough to amortize the batch round-trip,
    #: small enough that a chunk of (u, v) tuples stays a few hundred KB even
    #: on hub-heavy graphs (the probe universe is quadratic in degree).
    PROBE_CHUNK = 8192

    def probe_edges(self, pairs: Sequence[Tuple[int, int]]) -> List[bool]:
        """Edge membership of a batch of ``(u, v)`` probes, in input order.

        Duplicates are answered per position (the triangle methodology counts
        every probe).  An empty batch costs nothing.  For probe universes
        that are quadratic in degree (triangles, LCC) use
        :meth:`count_edges`, which never materialises the whole batch.
        """
        if not pairs:
            return []
        self.probe_calls += 1
        self.edges_probed += len(pairs)
        return self.store.has_edges(pairs)

    def count_edges(self, pairs: Iterable[Tuple[int, int]],
                    chunk_size: int = PROBE_CHUNK) -> int:
        """Number of probes in ``pairs`` that hit a stored edge.

        Consumes the probe stream lazily in chunks of ``chunk_size``, so the
        memory high-water mark is one chunk regardless of how many probes a
        hub's neighbourhood generates, while the store still sees large
        batches.  Duplicates count per occurrence, exactly like a streamed
        per-probe ``has_edge`` loop.
        """
        hits = 0
        chunk: list[Tuple[int, int]] = []
        append = chunk.append
        for pair in pairs:
            append(pair)
            if len(chunk) >= chunk_size:
                hits += sum(self.probe_edges(chunk))
                chunk = []
                append = chunk.append
        if chunk:
            hits += sum(self.probe_edges(chunk))
        return hits

    # ------------------------------------------------------------------ #
    # Accounting
    # ------------------------------------------------------------------ #

    @property
    def batch_calls(self) -> int:
        """Total batched store calls issued (expansions plus edge probes)."""
        return self.expand_calls + self.probe_calls

    def snapshot(self) -> Dict[str, int]:
        """Plain-dict copy of the batch counters (for reports and tests)."""
        return {
            "expand_calls": self.expand_calls,
            "nodes_expanded": self.nodes_expanded,
            "probe_calls": self.probe_calls,
            "edges_probed": self.edges_probed,
            "batch_calls": self.batch_calls,
        }


def ensure_engine(store: DynamicGraphStore,
                  engine: Optional[TraversalEngine]) -> TraversalEngine:
    """The engine a kernel should use: the caller's, or a private one.

    Kernels call this with their ``engine`` keyword; a supplied engine must
    wrap the same store the kernel was handed, otherwise batches would be
    answered by a different graph than the one being analysed.
    """
    if engine is None:
        return TraversalEngine(store)
    if engine.store is not store:
        raise ValueError("engine wraps a different store than the kernel was given")
    return engine


def materialize_adjacency(
    store: DynamicGraphStore, *, engine: Optional[TraversalEngine] = None,
) -> Dict[int, List[int]]:
    """Adjacency of every source node in one batched ``successors_many``.

    Empty successor lists are dropped, so the keys are exactly the nodes
    with at least one outgoing edge -- the adjacency form every whole-graph
    kernel (PageRank, betweenness, both component kernels) and the
    incremental kernels consume.  A sink is never probed: it appears only
    as a target, and :func:`adjacency_universe` finds it there.
    """
    engine = ensure_engine(store, engine)
    fetched = engine.expand(store.source_nodes())
    return {u: targets for u, targets in fetched.items() if targets}


def adjacency_universe(adjacency: Dict[int, List[int]]) -> List[int]:
    """Sorted list of every node incident to an edge of ``adjacency``."""
    seen: Set[int] = set()
    for source, targets in adjacency.items():
        seen.add(source)
        seen.update(targets)
    return sorted(seen)
