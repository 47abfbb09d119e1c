"""Incremental analytics replicas: delta-maintained kernels over the change feed.

Every library analytics run re-materializes the graph from scratch --
:func:`~repro.analytics.engine.materialize_adjacency` walks the full store
even when only a handful of edges changed since the last run.  This module
treats the replication stream as a **change feed**: an
:class:`AnalyticsFollower` attaches to a :class:`~repro.replicate.Primary`
like any :class:`~repro.replicate.Follower`, and in addition to applying
shipped ops to its replica store it maintains

* a persistent adjacency **materialization cache** with dirty-node
  invalidation (:class:`MaterializationCache`): shipped ops mark exactly
  the touched source nodes; a refresh re-fetches only those in **one**
  batched ``successors_many`` call and serves everything else from cache;
* **delta-maintained kernels**: incremental PageRank, incremental weakly
  connected components and degree/top-k maintenance, each updated from the
  per-source adjacency diffs the cache refresh produces, and each falling
  back to a full recompute when the delta exceeds a configurable fraction
  of the graph.

So repeated analytics on a slowly-mutating graph cost O(changes) instead of
O(graph) -- the "millions of users watching live dashboards" scenario.

Correctness contract (enforced by the unit suite and the replication fuzz
lane): at every commit index, each incremental kernel's output is
**byte-identical** -- exact ints and bit-exact floats, no tolerance -- to
the library kernel recomputed from scratch through a fresh
:class:`~repro.analytics.engine.TraversalEngine` on the same replica store:
:func:`~repro.analytics.pagerank.pagerank`,
:func:`~repro.analytics.components.weakly_connected_components`,
:func:`~repro.analytics.subgraph.total_degrees` and
:func:`~repro.analytics.subgraph.top_degree_nodes`.  Every one of them is a
function of the edge set alone: PageRank sweeps nodes in ascending order,
so each score folds its in-neighbours' shares in ascending order of the
sender, which is also what makes exact incremental maintenance possible.

How exact incremental PageRank works: the state keeps the full **per-sweep
rank history** of its last computation.  A structural delta marks the
directly affected nodes dirty; every sweep then re-evaluates only dirty
nodes (reading clean in-neighbours straight from the history) and a node
whose recomputed value is **bitwise equal** to its historical value stops
propagating -- the residual threshold is machine precision, so the dirty
frontier collapses exactly where the perturbation dies out and the result
is provably identical to a from-scratch run.  Node-set changes and dirty
frontiers beyond ``recompute_fraction`` fall back to a full rebuild (still
served from the cache, so the store phase stays one batched refetch).
"""

from __future__ import annotations

from bisect import insort
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple, Union

from ..interfaces import DynamicGraphStore
from ..replicate.follower import Follower
from .components import _ComponentState
from .engine import TraversalEngine, adjacency_universe
from .pagerank import DEFAULT_DAMPING, DEFAULT_ITERATIONS, pagerank_sweeps

#: Default fraction of the graph's edges a delta may touch before the
#: kernels fall back to a full recompute (still cache-served).
DEFAULT_RECOMPUTE_FRACTION = 0.25


# --------------------------------------------------------------------- #
# Materialization cache
# --------------------------------------------------------------------- #


class MaterializationCache:
    """Persistent adjacency cache with dirty-source invalidation.

    The change feed marks the source node of every shipped op dirty
    (:meth:`mark_dirty`); :meth:`refresh` then re-fetches exactly the dirty
    sources in **one** batched ``successors_many`` call and returns the
    per-source ``(old, new)`` successor-list diffs the delta kernels feed
    on.  Clean nodes are never re-fetched: :meth:`serve` answers them from
    the cache.
    """

    def __init__(self) -> None:
        self._adjacency: Dict[int, List[int]] = {}
        self._dirty: Set[int] = set()
        self._primed = False
        #: Frontier nodes answered from the cache (no store round-trip).
        self.hits = 0
        #: Frontier nodes that had to go to the store (dirty or unprimed).
        self.misses = 0
        #: Dirty sources re-fetched by :meth:`refresh`.
        self.refetched = 0
        #: Full materializations (:meth:`prime` calls).
        self.primes = 0
        #: :meth:`refresh` invocations.
        self.refreshes = 0

    # -- introspection -------------------------------------------------- #

    @property
    def primed(self) -> bool:
        """Whether the cache holds a full materialization."""
        return self._primed

    @property
    def dirty_count(self) -> int:
        """Sources marked dirty and not yet refreshed."""
        return len(self._dirty)

    @property
    def cached_sources(self) -> int:
        return len(self._adjacency)

    @property
    def hit_rate(self) -> float:
        """Fraction of node lookups served without touching the store."""
        total = self.hits + self.misses + self.refetched
        return self.hits / total if total else 0.0

    def adjacency(self) -> Dict[int, List[int]]:
        """The cached adjacency (internal; treat as read-only)."""
        return self._adjacency

    def stats(self) -> Dict[str, object]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "refetched": self.refetched,
            "primes": self.primes,
            "refreshes": self.refreshes,
            "hit_rate": self.hit_rate,
            "cached_sources": self.cached_sources,
            "dirty": self.dirty_count,
        }

    # -- maintenance ---------------------------------------------------- #

    def mark_dirty(self, source: int) -> None:
        """Invalidate one source node (its successor list may have changed)."""
        if self._primed:
            self._dirty.add(source)

    def invalidate(self) -> None:
        """Drop everything; the next refresh is a full materialization."""
        self._adjacency = {}
        self._dirty.clear()
        self._primed = False

    def prime(self, store: DynamicGraphStore,
              engine: TraversalEngine) -> Dict[int, List[int]]:
        """Full one-batch materialization of ``store``'s adjacency."""
        fetched = engine.expand(store.source_nodes())
        self._adjacency = {u: list(t) for u, t in fetched.items() if t}
        self._dirty.clear()
        self._primed = True
        self.primes += 1
        return self._adjacency

    def refresh(self, store: DynamicGraphStore, engine: TraversalEngine,
                ) -> Dict[int, Tuple[List[int], List[int]]]:
        """Re-fetch the dirty sources; return their real ``(old, new)`` diffs.

        One ``successors_many`` batch over the dirty set, however many ops
        produced it.  Sources whose successor *set* did not actually change
        (a duplicate insert, an insert+delete pair between refreshes) are
        healed silently and excluded from the returned diffs, so the delta
        kernels only ever see true structural change.
        """
        if not self._primed:
            raise RuntimeError("refresh() before prime(): no cache to refresh")
        self.refreshes += 1
        if not self._dirty:
            return {}
        dirty = sorted(self._dirty)
        fetched = engine.expand(dirty)
        diffs: Dict[int, Tuple[List[int], List[int]]] = {}
        for source in dirty:
            old = self._adjacency.get(source, [])
            new = list(fetched.get(source, ()))
            if new:
                self._adjacency[source] = new
            else:
                self._adjacency.pop(source, None)
            if set(old) != set(new):
                diffs[source] = (old, new)
        self.refetched += len(dirty)
        self._dirty.clear()
        return diffs

    def serve(self, store: DynamicGraphStore,
              nodes: Sequence[int]) -> Tuple[Dict[int, List[int]], int]:
        """Successor lists for ``nodes``: clean from cache, rest in one batch.

        Returns ``(result, fetched_count)``.  Dirty (or unprimed) nodes are
        answered straight from the store *without* healing the cache --
        healing happens only through :meth:`refresh`, which is what keeps
        the delta kernels' view of "old" intact.
        """
        pending = [
            u for u in nodes
            if not self._primed or u in self._dirty
        ]
        fetched = store.successors_many(pending) if pending else {}
        result: Dict[int, List[int]] = {}
        for u in nodes:
            if u in fetched:
                result[u] = list(fetched[u])
            else:
                result[u] = list(self._adjacency.get(u, ()))
        self.hits += len(nodes) - len(pending)
        self.misses += len(pending)
        return result, len(pending)


class CachedTraversalEngine(TraversalEngine):
    """A :class:`TraversalEngine` whose expansions are served by the cache.

    Drop-in for any kernel's ``engine`` keyword: clean frontier nodes cost
    no store round-trip at all; dirty ones are fetched in one batch.  The
    inherited batch counters keep their meaning -- ``expand_calls`` counts
    *store* batches actually issued -- and :attr:`cache_served` counts the
    frontier nodes the cache answered, so a fresh engine per run yields
    honest per-run accounting.
    """

    def __init__(self, store: DynamicGraphStore, cache: MaterializationCache):
        super().__init__(store)
        self._cache = cache
        #: Frontier nodes answered from the cache by this engine.
        self.cache_served = 0

    def expand(self, frontier: Iterable[int]) -> Dict[int, List[int]]:
        nodes = list(dict.fromkeys(frontier))
        if not nodes:
            return {}
        result, fetched = self._cache.serve(self.store, nodes)
        if fetched:
            self.expand_calls += 1
            self.nodes_expanded += fetched
        self.cache_served += len(nodes) - fetched
        return result


# --------------------------------------------------------------------- #
# Delta-maintained kernel states
# --------------------------------------------------------------------- #

#: One source's structural change: ``source -> (old_targets, new_targets)``.
Diffs = Dict[int, Tuple[List[int], List[int]]]


class _DegreeState:
    """Exact total-degree maintenance (matches ``total_degrees`` output)."""

    def __init__(self, adjacency: Dict[int, List[int]]):
        degrees: Dict[int, int] = {}
        for source, targets in adjacency.items():
            degrees[source] = degrees.get(source, 0) + len(targets)
            for target in targets:
                degrees[target] = degrees.get(target, 0) + 1
        self.degrees = degrees

    def apply(self, source: int, added: Set[int], removed: Set[int],
              ) -> Tuple[Set[int], Set[int]]:
        """Apply one source diff; return ``(nodes_appeared, nodes_vanished)``."""
        degrees = self.degrees
        touched = {source} | added | removed
        before = {node for node in touched if node in degrees}
        delta = len(added) - len(removed)
        if delta:
            degrees[source] = degrees.get(source, 0) + delta
        for target in added:
            degrees[target] = degrees.get(target, 0) + 1
        for target in removed:
            degrees[target] -= 1
        for node in touched:
            if degrees.get(node) == 0:
                del degrees[node]
        after = {node for node in touched if node in degrees}
        return after - before, before - after

    def top(self, count: int) -> List[int]:
        """Same ranking rule as ``top_degree_nodes``: by (-degree, node)."""
        ranked = sorted(self.degrees.items(), key=lambda item: (-item[1], item[0]))
        return [node for node, _ in ranked[:count]]


class _PageRankState:
    """Exact incremental PageRank via memoized sweep history.

    Keeps the per-sweep rank vector of its last full evaluation.  A
    structural delta dirties the directly affected nodes; each sweep then
    re-evaluates only nodes whose inputs changed, reading clean
    in-neighbours from the history, and stops propagating wherever the
    recomputed value is bitwise equal to the historical one (residual
    threshold = machine precision).  The result is byte-identical to a
    from-scratch evaluation because every recomputed value is produced by
    the *same* fold, in the same order, over operands that are themselves
    identical-by-induction.
    """

    def __init__(self, adjacency: Dict[int, List[int]],
                 iterations: int, damping: float):
        self.iterations = iterations
        self.damping = damping
        #: Nodes re-evaluated across incremental sweeps (stats).
        self.nodes_recomputed = 0
        self._build(adjacency)

    # -- full evaluation ------------------------------------------------ #

    def _build(self, adjacency: Dict[int, List[int]]) -> None:
        self.nodes: List[int] = adjacency_universe(adjacency)
        self._node_set: Set[int] = set(self.nodes)
        in_lists: Dict[int, List[int]] = {node: [] for node in self.nodes}
        for source in sorted(adjacency):
            for target in adjacency[source]:
                in_lists[target].append(source)  # sorted: sources ascend
        self._in = in_lists
        self._dangling: List[int] = [n for n in self.nodes if n not in adjacency]
        self._dangling_set: Set[int] = set(self._dangling)
        self._dangling_changed = False
        self._hist: List[Dict[int, float]] = []
        self._dm: List[float] = []
        for ranks, dm in pagerank_sweeps(self.nodes, adjacency,
                                         self.iterations, self.damping):
            self._hist.append(dict(zip(self.nodes, ranks)))
            self._dm.append(dm)
        if not self._hist:
            self._hist = [{}] * (self.iterations + 1)
            self._dm = [0.0] * (self.iterations + 1)

    def _value(self, node: int, prev: Dict[int, float], base: float,
               redistributed: float, adjacency: Dict[int, List[int]]) -> float:
        """One node's score in one sweep, pulled from its in-neighbours.

        The same floats a sweep of
        :func:`~repro.analytics.pagerank.pagerank_sweeps` pushes into the
        node's dense position: base, then each in-neighbour's share in
        ascending order of the sender, then the redistributed dangling mass.
        Incremental repair re-evaluates single nodes with it.
        """
        value = base
        for source in self._in[node]:
            value += self.damping * prev[source] / len(adjacency[source])
        if redistributed:
            value += redistributed
        return value

    # -- incremental maintenance ---------------------------------------- #

    def update(self, diffs: Diffs, adjacency: Dict[int, List[int]],
               node_churn: bool, recompute_fraction: float) -> str:
        """Fold a structural delta into the history.

        Returns ``"clean"`` (no change), ``"incremental"`` or
        ``"recompute"`` (full rebuild: the node set changed -- every term
        carries 1/n -- or the dirty frontier blew past
        ``recompute_fraction`` of the graph).
        """
        if not diffs and not node_churn:
            return "clean"
        if node_churn:
            self._build(adjacency)
            return "recompute"
        base_dirty: Set[int] = set()
        for source, (old, new) in diffs.items():
            old_set, new_set = set(old), set(new)
            added = new_set - old_set
            removed = old_set - new_set
            for target in added:
                insort(self._in[target], source)
            for target in removed:
                self._in[target].remove(source)
            if len(old) != len(new):
                # Out-degree changed: every share this source pushes moved.
                base_dirty |= old_set | new_set
            else:
                base_dirty |= added | removed
            was_dangling = not old
            is_dangling = not new
            if was_dangling != is_dangling:
                self._dangling_changed = True
                if is_dangling:
                    insort(self._dangling, source)
                    self._dangling_set.add(source)
                else:
                    self._dangling.remove(source)
                    self._dangling_set.discard(source)
        count = len(self.nodes)
        budget = max(1, int(recompute_fraction * count))
        if len(base_dirty) > budget:
            self._build(adjacency)
            return "recompute"
        base = (1.0 - self.damping) / count
        changed_prev: Set[int] = set()
        for sweep in range(1, self.iterations + 1):
            prev = self._hist[sweep - 1]
            dm = self._dm[sweep]
            if self._dangling_changed or \
                    not changed_prev.isdisjoint(self._dangling_set):
                dm = 0.0
                for node in self._dangling:
                    dm += prev[node]
            if dm != self._dm[sweep]:
                dirty: Set[int] = self._node_set
            else:
                dirty = set(base_dirty)
                for source in changed_prev:
                    dirty.update(adjacency.get(source, ()))
            if len(dirty) > budget:
                self._build(adjacency)
                return "recompute"
            redistributed = self.damping * dm / count if dm else 0.0
            current = self._hist[sweep]
            changed: Set[int] = set()
            for node in dirty:
                value = self._value(node, prev, base, redistributed, adjacency)
                if value != current[node]:
                    current[node] = value
                    changed.add(node)
            self._dm[sweep] = dm
            self.nodes_recomputed += len(dirty)
            changed_prev = changed
        self._dangling_changed = False
        return "incremental"

    def ranks(self) -> Dict[int, float]:
        """The maintained score vector, keyed in sorted node order."""
        final = self._hist[-1]
        return {node: final[node] for node in self.nodes}


# --------------------------------------------------------------------- #
# The analytics follower
# --------------------------------------------------------------------- #


class AnalyticsFollower(Follower):
    """A read replica that keeps analytics state fresh from the change feed.

    Attach it to a :class:`~repro.replicate.Primary` like any follower; it
    applies shipped ops to its replica store *and* marks the touched source
    nodes dirty in its :class:`MaterializationCache`.  Analytics queries
    (:meth:`pagerank`, :meth:`components`, :meth:`top_degree_nodes`,
    :meth:`total_degrees`) first :meth:`refresh_analytics` -- one batched
    refetch of exactly the dirty sources, then O(delta) kernel maintenance
    -- and are byte-identical to the canonical kernels recomputed from
    scratch on the replica at the same commit index.

    ``engine()`` hands out a fresh :class:`CachedTraversalEngine` per call,
    so kernels without an incremental formulation (BFS, SSSP, Tarjan SCC,
    ...) still skip the store's materialization phase while keeping
    per-run batch counters.

    Args:
        store / scheme / own_store: as for
            :class:`~repro.replicate.Follower`.
        iterations: Sweep count of the maintained PageRank.
        damping: Damping factor of the maintained PageRank.
        recompute_fraction: Delta size (touched edges vs stored edges, and
            dirty-frontier nodes vs graph nodes) beyond which a kernel
            falls back to full recompute instead of incremental repair.
    """

    def __init__(
        self,
        store: Optional[DynamicGraphStore] = None,
        scheme: Union[str, Callable[[], DynamicGraphStore]] = "sharded",
        *,
        own_store: Optional[bool] = None,
        iterations: int = DEFAULT_ITERATIONS,
        damping: float = DEFAULT_DAMPING,
        recompute_fraction: float = DEFAULT_RECOMPUTE_FRACTION,
    ):
        if iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {iterations}")
        if not 0.0 < damping < 1.0:
            raise ValueError(f"damping must be in (0, 1), got {damping}")
        if not 0.0 < recompute_fraction <= 1.0:
            raise ValueError(
                f"recompute_fraction must be in (0, 1], got {recompute_fraction}"
            )
        super().__init__(store, scheme, own_store=own_store)
        self.iterations = iterations
        self.damping = damping
        self.recompute_fraction = recompute_fraction
        self.cache = MaterializationCache()
        self._degrees: Optional[_DegreeState] = None
        self._components: Optional[_ComponentState] = None
        self._pagerank: Optional[_PageRankState] = None
        self._decisions = {"primed": 0, "clean": 0, "incremental": 0,
                           "recompute": 0}
        self._kernel_decisions = {
            "pagerank": {"incremental": 0, "recompute": 0},
            "components": {"incremental": 0, "recompute": 0},
        }
        self._ops_seen = 0

    # -- change-feed hooks ---------------------------------------------- #

    def _apply_ops(self, ops) -> None:
        super()._apply_ops(ops)
        mark = self.cache.mark_dirty
        for op in ops:
            mark(op[1])
        self._ops_seen += len(ops)

    def _connect(self, primary, channel, *, commit_index, generation,
                 offsets) -> None:
        super()._connect(primary, channel, commit_index=commit_index,
                         generation=generation, offsets=offsets)
        # attach() backfilled the store directly (snapshot + directory
        # replay, not the channel), so everything cached is suspect.
        self.invalidate_analytics()

    def promote(self, *args, **kwargs):
        promoted = super().promote(*args, **kwargs)
        # The promoted wrapper takes writes that bypass the feed.
        self.invalidate_analytics()
        return promoted

    def invalidate_analytics(self) -> None:
        """Drop cache and kernel state; the next query re-primes in full."""
        self.cache.invalidate()
        self._degrees = None
        self._components = None
        self._pagerank = None

    # -- maintenance ----------------------------------------------------- #

    def refresh_analytics(self) -> str:
        """Bring cache and kernels up to date with the replica store.

        Returns the decision taken: ``"primed"`` (first run / after
        invalidation: one full materialization), ``"clean"`` (nothing
        dirty), ``"incremental"`` (dirty sources refetched in one batch,
        kernels delta-repaired) or ``"recompute"`` (delta exceeded
        ``recompute_fraction``: kernels rebuilt from the refreshed cache).
        """
        if not self.cache.primed or self._degrees is None:
            adjacency = self.cache.prime(self.store, TraversalEngine(self.store))
            self._rebuild_kernels(adjacency)
            self._decisions["primed"] += 1
            return "primed"
        if not self.cache.dirty_count:
            self._decisions["clean"] += 1
            return "clean"
        changed_budget = self.recompute_fraction * max(1, self.store.num_edges)
        diffs = self.cache.refresh(self.store, TraversalEngine(self.store))
        adjacency = self.cache.adjacency()
        if not diffs:
            self._decisions["clean"] += 1
            return "clean"
        changed_edges = sum(
            len(set(old) ^ set(new)) for old, new in diffs.values()
        )
        if changed_edges > changed_budget:
            self._rebuild_kernels(adjacency)
            self._decisions["recompute"] += 1
            return "recompute"
        # Degrees first: their transitions tell us whether the node set
        # changed, which decides the PageRank path.
        node_churn = False
        for source, (old, new) in diffs.items():
            old_set, new_set = set(old), set(new)
            added = new_set - old_set
            removed = old_set - new_set
            appeared, vanished = self._degrees.apply(source, added, removed)
            node_churn = node_churn or bool(appeared) or bool(vanished)
            self._components.apply(source, added, removed)
        if self._components.tainted:
            self._components.settle(adjacency)
            self._kernel_decisions["components"]["incremental"] += 1
        pagerank_path = self._pagerank.update(
            diffs, adjacency, node_churn, self.recompute_fraction)
        if pagerank_path in ("incremental", "recompute"):
            self._kernel_decisions["pagerank"][pagerank_path] += 1
        self._decisions["incremental"] += 1
        return "incremental"

    def _rebuild_kernels(self, adjacency: Dict[int, List[int]]) -> None:
        self._degrees = _DegreeState(adjacency)
        self._components = _ComponentState(adjacency)
        self._pagerank = _PageRankState(adjacency, iterations=self.iterations,
                                        damping=self.damping)
        self._kernel_decisions["pagerank"]["recompute"] += 1
        self._kernel_decisions["components"]["recompute"] += 1

    # -- queries --------------------------------------------------------- #

    def pagerank(self) -> Dict[int, float]:
        """Maintained PageRank; byte-identical to :func:`~repro.analytics.pagerank`."""
        self.refresh_analytics()
        return self._pagerank.ranks()

    def components(self) -> List[List[int]]:
        """Maintained weakly connected components in canonical form."""
        self.refresh_analytics()
        return self._components.components(sorted(self._degrees.degrees))

    def total_degrees(self) -> Dict[int, int]:
        """Maintained total degrees; equals ``total_degrees(store)``."""
        self.refresh_analytics()
        return dict(self._degrees.degrees)

    def top_degree_nodes(self, count: int) -> List[int]:
        """Maintained top-k by total degree; equals ``top_degree_nodes``."""
        self.refresh_analytics()
        return self._degrees.top(count)

    def engine(self) -> CachedTraversalEngine:
        """A fresh cache-backed engine (per-run counters start at zero)."""
        self.refresh_analytics()
        return CachedTraversalEngine(self._store, self.cache)

    def analytics_stats(self) -> Dict[str, object]:
        """Cache, refresh-decision and kernel-path counters, cumulative
        since construction: ``cache`` is :meth:`MaterializationCache.stats`,
        ``decisions`` counts what each :meth:`refresh_analytics` did."""
        return {
            "cache": self.cache.stats(),
            "decisions": dict(self._decisions),
            "kernels": {
                "pagerank": dict(self._kernel_decisions["pagerank"]),
                "components": dict(self._kernel_decisions["components"]),
            },
            "pagerank_nodes_recomputed": (
                self._pagerank.nodes_recomputed if self._pagerank else 0
            ),
            "components_nodes_recomputed": (
                self._components.nodes_recomputed if self._components else 0
            ),
            "ops_seen": self._ops_seen,
        }
