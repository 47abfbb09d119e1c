"""Tiered hot/cold storage: CuckooGraph shards in front, database spill behind.

The paper evaluates CuckooGraph as an in-memory structure; a deployment
serving graphs bigger than its memory budget keeps only the *hot* partitions
resident and spills the rest to a slower backing store.  :class:`TieredStore`
implements that split over the same source-node partitioning as
:class:`~repro.core.sharded.ShardedCuckooGraph`:

* **Routing.**  Every edge ``⟨u, v⟩`` lives on the shard owned by ``u``,
  chosen by the store contract's routing (``shard_of``, ``partition_edges``;
  :func:`~repro.interfaces.shard_index`), so a node's shard is a pure
  function of the shard count, never of the access history.  Routing, the
  per-shard batch groups, the ``has_edges``/``successors_many`` gather and
  the summed aggregates are :class:`~repro.interfaces.PartitionedStore`'s,
  shared with the sharded front-end; this class supplies its one hook,
  ``_serve`` -- check the store is open, touch the shard, maybe migrate it,
  hand back its current store -- which is the only place a touch happens:
  once per single operation and once per group of a batch, counting the
  group's length, before the group runs.  A
  :class:`~repro.persist.PersistentStore` over this store routes a batch
  once and hands the same groups to ``insert_groups``/``delete_groups``.

* **Tiers.**  A hot shard is a complete :class:`~repro.core.graph.CuckooGraph`;
  a cold shard lives in one of the database integrations
  (:class:`~repro.integrations.RedisGraphStore` by default, or any factory the
  caller supplies).  Both speak the full :class:`~repro.interfaces.DynamicGraphStore`
  contract, so every operation (a group through the shard store's own batch
  method) delegates unchanged -- only latency and the modelled access counts
  differ between tiers.

* **Admission/eviction policy.**  A pluggable policy (default
  :class:`TouchLRUPolicy`: touch-count admission, least-recently-touched
  eviction) decides when a cold shard earned promotion into the hot tier and
  which hot shard pays for it with demotion.  Migrating a shard replays its
  distinct edges into a fresh store of the target tier.

* **Read stability.**  Policy decisions are applied only on *mutating*
  operations; reads bump the touch/hit counters but never migrate a shard.
  This keeps successor and edge iteration order frozen across read-only
  analytics sweeps, which is exactly what the engine-parity suites
  (byte-identical PageRank, order-identical BFS) require of every store in
  ``ALL_STORE_FACTORIES``.

* **Lifecycle.**  ``close()`` closes every tier store and is terminal: every
  later operation, read or write, raises
  :class:`~repro.core.errors.StoreClosedError`.

* **Observability.**  ``hits`` / ``misses`` / ``promotions`` / ``demotions``
  plus per-shard touch counts surface through :meth:`tier_stats`, which the
  service layer folds into :class:`~repro.service.metrics.ServiceMetrics`
  (summary section ``"tiered"``) and the traffic harness samples for its SLO
  reports.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from ..core.config import CuckooGraphConfig, PAPER_CONFIG
from ..core.errors import ConfigurationError
from ..core.graph import CuckooGraph
from ..interfaces import DynamicGraphStore, PartitionedStore

#: Names accepted for the built-in cold-tier backends.
COLD_BACKENDS = ("redis", "neo4j")


def _cold_factory_for(backend: str) -> Callable[[], DynamicGraphStore]:
    # Imported lazily: repro.integrations pulls in the mini database engines,
    # which nothing else in the core import path needs.
    if backend == "redis":
        from ..integrations import RedisGraphStore

        return RedisGraphStore
    if backend == "neo4j":
        from ..integrations import Neo4jGraphStore

        return Neo4jGraphStore
    raise ConfigurationError(
        f"cold backend must be one of {COLD_BACKENDS}, got {backend!r}"
    )


class TouchLRUPolicy:
    """Touch-count admission with least-recently-touched eviction.

    A cold shard becomes a promotion candidate once it has accumulated
    ``promote_after`` touches since the last migration that involved it; it
    is admitted when its windowed touch count exceeds the windowed count of
    the least-recently-touched hot shard (the LRU victim, which is demoted
    in its place).  Both windows reset on migration, so a freshly demoted
    shard must re-earn its way back instead of thrashing.

    The policy is consulted only from mutating operations (see the module
    docstring); it is deterministic, so a replayed operation sequence always
    yields the same tier layout.
    """

    def __init__(self, promote_after: int = 4):
        if promote_after < 1:
            raise ConfigurationError(
                f"promote_after must be >= 1, got {promote_after}"
            )
        self.promote_after = promote_after

    def pick_swap(self, store: "TieredStore", shard: int) -> Optional[int]:
        """Victim hot shard to demote for promoting ``shard``, or ``None``."""
        if store._window_touches[shard] < self.promote_after:
            return None
        hot = [index for index in range(store.num_shards) if store._hot[index]]
        if not hot:
            return None
        victim = min(hot, key=lambda index: store._last_touch[index])
        if store._window_touches[shard] <= store._window_touches[victim]:
            return None
        return victim


class TieredStore(PartitionedStore):
    """Hot/cold tiered store speaking the full ``DynamicGraphStore`` contract.

    Args:
        num_shards: Number of hash partitions (``>= 1``).
        hot_shards: Partitions resident in the CuckooGraph tier (``1 ..
            num_shards``).  The first ``hot_shards`` shard indices start hot;
            the policy reshapes the set as traffic arrives.
        config: Base CuckooGraph configuration for hot shards; each shard
            derives its own hash seeds (``seed + shard index``), matching the
            sharded front-end.
        cold: Either a backend name from :data:`COLD_BACKENDS` or a factory
            returning an empty cold-tier store per shard.
        policy: Admission/eviction policy; defaults to
            :class:`TouchLRUPolicy`.
    """

    name = "TieredStore"

    def __init__(
        self,
        num_shards: int = 8,
        hot_shards: int = 2,
        *,
        config: Optional[CuckooGraphConfig] = None,
        cold: "str | Callable[[], DynamicGraphStore]" = "redis",
        policy: Optional[TouchLRUPolicy] = None,
    ):
        if num_shards < 1:
            raise ConfigurationError(f"num_shards must be >= 1, got {num_shards}")
        if not 1 <= hot_shards <= num_shards:
            raise ConfigurationError(
                f"hot_shards must be in 1..{num_shards}, got {hot_shards}"
            )
        self.num_shards = num_shards
        self.hot_shards = hot_shards
        self.config = config if config is not None else PAPER_CONFIG
        self._cold_spec = cold
        self._cold_factory = (
            _cold_factory_for(cold) if isinstance(cold, str) else cold
        )
        self.policy = policy if policy is not None else TouchLRUPolicy()
        self._hot: List[bool] = [index < hot_shards for index in range(num_shards)]
        self.shards: List[DynamicGraphStore] = [
            self._new_hot_store(index) if self._hot[index] else self._cold_factory()
            for index in range(num_shards)
        ]
        # -- tier telemetry ------------------------------------------------ #
        self.hits = 0          # touches served by the hot tier
        self.misses = 0        # touches served by the cold tier
        self.promotions = 0    # cold -> hot migrations
        self.demotions = 0     # hot -> cold migrations
        self._touches: List[int] = [0] * num_shards          # cumulative
        self._window_touches: List[int] = [0] * num_shards   # since migration
        self._last_touch: List[int] = [0] * num_shards       # recency clock
        self._clock = 0
        # Accesses of stores discarded by migration, so the store-wide
        # counter stays monotonic across tier rebuilds.
        self._carried_accesses = 0

    # ------------------------------------------------------------------ #
    # Tier plumbing
    # ------------------------------------------------------------------ #

    def _new_hot_store(self, shard: int) -> CuckooGraph:
        return CuckooGraph(self.config.with_overrides(seed=self.config.seed + shard))

    def is_hot(self, shard: int) -> bool:
        """Whether ``shard`` currently resides in the CuckooGraph tier."""
        return self._hot[shard]

    def _serve(self, index: int, count: int, mutating: bool) -> DynamicGraphStore:
        """Record ``count`` operations landing on shard ``index``; maybe migrate.

        The one place a touch happens.  Reads only update the counters; only
        a mutating touch may trigger a promotion/demotion swap (read
        stability, see the module docstring), and it happens before the
        operations run, so a whole group lands in the shard's new tier.
        """
        self._check_open()
        self._clock += 1
        self._touches[index] += count
        self._window_touches[index] += count
        self._last_touch[index] = self._clock
        if self._hot[index]:
            self.hits += count
        else:
            self.misses += count
            if mutating:
                victim = self.policy.pick_swap(self, index)
                if victim is not None:
                    self._swap(promote=index, demote=victim)
        return self.shards[index]

    def _swap(self, promote: int, demote: int) -> None:
        """Promote one cold shard, demote one hot shard, reset their windows."""
        self._migrate(promote, self._new_hot_store(promote))
        self._migrate(demote, self._cold_factory())
        self._hot[promote] = True
        self._hot[demote] = False
        self.promotions += 1
        self.demotions += 1
        self._window_touches[promote] = 0
        self._window_touches[demote] = 0

    def _migrate(self, shard: int, target: DynamicGraphStore) -> None:
        source = self.shards[shard]
        target.insert_edges(list(source.edges()))
        self._carried_accesses += source.accesses
        source.close()
        self.shards[shard] = target

    def spawn_empty(self) -> "TieredStore":
        return TieredStore(
            num_shards=self.num_shards,
            hot_shards=self.hot_shards,
            config=self.config,
            cold=self._cold_spec,
            policy=self.policy,
        )

    # ------------------------------------------------------------------ #
    # Telemetry
    # ------------------------------------------------------------------ #

    @property
    def accesses(self) -> int:
        return self._carried_accesses + super().accesses

    @accesses.setter
    def accesses(self, value: int) -> None:
        if value != 0:
            raise ConfigurationError("accesses can only be reset to 0")
        self.reset_accesses()

    def reset_accesses(self) -> None:
        self._carried_accesses = 0
        super().reset_accesses()

    def tier_stats(self) -> Dict[str, object]:
        """Snapshot of the tier telemetry (all counters are cumulative)."""
        touches = self.hits + self.misses
        return {
            "num_shards": self.num_shards,
            "hot_shards": sum(self._hot),
            "hot_set": [index for index in range(self.num_shards) if self._hot[index]],
            "touches": touches,
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": (self.hits / touches) if touches else 0.0,
            "promotions": self.promotions,
            "demotions": self.demotions,
            "shard_touches": list(self._touches),
        }

    def structure_summary(self) -> Dict[str, object]:
        """Per-tier shape plus the tier telemetry (for reports/debugging)."""
        return {
            "scheme": self.name,
            "edges": self.num_edges,
            "memory_bytes": self.memory_bytes(),
            "tiers": {
                str(index): {
                    "tier": "hot" if self._hot[index] else "cold",
                    "backend": self.shards[index].name,
                    "edges": self.shards[index].num_edges,
                }
                for index in range(self.num_shards)
            },
            **{"tier_stats": self.tier_stats()},
        }

    def __repr__(self) -> str:
        hot = sum(self._hot)
        return (
            f"TieredStore(shards={self.num_shards}, hot={hot}, "
            f"edges={self.num_edges}, hit_rate={self.tier_stats()['hit_rate']:.3f})"
        )
