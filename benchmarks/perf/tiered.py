"""``serve_open_tiered``: independent users arriving on a schedule.

``GraphService`` over ``TieredStore(num_shards=8, hot_shards=2, cold=miniredis)``,
no WAL.  Two tenant threads replay seeded Poisson schedules drawn with
``repro.traffic.workload.tenant_schedule``; every latency is measured **from
the moment the request was due**, not from when the generator got round to
sending it (``repro.traffic.driver`` times from submit), and the generator's
own lateness is reported.

The deployment is what ``repro.traffic.driver.build_service`` builds for
``scheme="tiered"``; it is composed here because that helper has no seam for
the traced cold-tier factory.  Tenants own disjoint key ranges (4 096 keys
each, ``tenant_layout="disjoint"``): the queue is FIFO, so a tenant's
requests execute in the order it sent them, and with no other tenant
touching its sources every result is determined before the run and checked
exactly.
"""

from __future__ import annotations

import random
import threading
import time
from concurrent.futures import Future
from concurrent.futures import wait as wait_futures
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro import GraphClient, GraphService, TieredStore
from repro.integrations import RedisGraphStore
from repro.tiered import TouchLRUPolicy
from repro.traffic.config import ScenarioConfig
from repro.traffic.workload import ZipfRanks, tenant_schedule

from .common import ID_BITS, Context, restore_from_snapshot
from .oracle import Edge, Oracle
from .serve import (
    bulk_delete,
    bulk_has,
    bulk_insert,
    bulk_successors,
    client_analytics,
    record_service,
)
from .stats import percentile
from .stream import BATCH_CALLS
from .tracing import clock

SHARDS = 8
HOT_SHARDS = 2
TENANTS = 2
KEYS_PER_TENANT = 4096
ZIPF = 1.1
MIX = {"insert": 0.50, "delete": 0.10, "has": 0.25, "successors": 0.15}
WRITES = ("insert", "delete")
#: ``build_service``'s service settings for a traffic scenario.
MAX_BATCH = 64
QUEUE_CAPACITY = 4096

#: Sizes per round at ``--seconds 15``.
WARMUP_EDGES = 2_000                      # untimed, part of set-up
SETTLE_RATE, SETTLE_SECONDS = 20_000, 0.25  # untimed traffic, part of set-up
BULK_EDGES = 4_000                        # the bulk phases, after the open loop
#: Both timed steps run as short steps of their own, the queue drained and
#: the host's speed sampled between them.
EDGE_SAMPLES = 3
REF_RATE, REF_SECONDS, REF_STEPS = 2000, 2.0, 4
OVERLOAD_RATE, OVERLOAD_OPS, OVERLOAD_STEPS = 200_000, 10_000, 4
#: Traced run, last round only.
LADDER = ((4000, 2.5), (6000, 2.5))
COLD_RATE, COLD_SECONDS = 500, 3.0
SUCCESSOR_PASSES = 4
ANALYTICS_ROUNDS = 2
#: A request sent later than this after it was due counts as late.
LATE_S = 0.001
#: Latency limit of the rate ladder (``traffic.max_rate_ok``).
P99_LIMIT_MS = 10.0
DRAIN_TIMEOUT_S = 60.0

Event = Tuple[float, str, int, int]       # due (s from step start), kind, u, v


# --------------------------------------------------------------------- #
# Keys and schedules
# --------------------------------------------------------------------- #

def shard_major_keys(rng: random.Random, shard_of: Callable[[int], int]) -> List[int]:
    """The key universe in popularity order, grouped by owning shard.

    ``repro.traffic.workload.ranked_keys``'s ``shard_major`` layout, over
    random 62-bit identifiers instead of ``0, 1, 2, ...``: the hottest ranks
    share few shards, and the popular shards are the highest-numbered ones,
    never the store's initial hot set (the lowest-numbered), so every seed
    makes the tier policy do the same promotions.
    """
    quota = TENANTS * KEYS_PER_TENANT // SHARDS
    buckets: List[List[int]] = [[] for _ in range(SHARDS)]
    seen = set()
    while any(len(bucket) < quota for bucket in buckets):
        key = rng.getrandbits(ID_BITS)
        bucket = buckets[shard_of(key)]
        if len(bucket) < quota and key not in seen:
            seen.add(key)
            bucket.append(key)
    return [key for shard in reversed(range(SHARDS)) for key in buckets[shard]]


def step_plans(seed: int, rate: float, seconds: float,
               keys: Sequence[int]) -> List[List[Event]]:
    """One event list per tenant for a step of ``rate`` ops/s over ``seconds``."""
    config = ScenarioConfig(seed=seed, duration_s=seconds, target_ops_s=rate,
                            arrival="poisson", tenants=TENANTS, tenant_layout="disjoint",
                            keys_per_tenant=KEYS_PER_TENANT, zipf_exponent=ZIPF, mix=dict(MIX))
    plans = []
    for tenant in range(TENANTS):
        own = keys[tenant::TENANTS]
        plans.append([(event.at_s, event.kind, own[event.rank_u], own[event.rank_v])
                      for event in tenant_schedule(config, tenant)])
    return plans


def zipf_edges(rng: random.Random, keys: Sequence[int], count: int) -> List[Edge]:
    """``count`` distinct edges with zipf-popular endpoints over all keys."""
    zipf = ZipfRanks(len(keys), ZIPF)
    edges: Dict[Edge, None] = {}
    while len(edges) < count:
        u, v = keys[zipf.sample(rng)], keys[zipf.sample(rng)]
        if u != v:
            edges[(u, v)] = None
    return list(edges)


# --------------------------------------------------------------------- #
# The open loop
# --------------------------------------------------------------------- #

#: What a request that never completed "returned".
UNANSWERED = object()


@dataclass
class StepOutcome:
    """What one step measured, per tenant, in event order."""

    plans: List[List[Event]]
    start: float = 0.0
    sent: List[List[float]] = field(default_factory=list)
    done: List[List[float]] = field(default_factory=list)
    results: List[list] = field(default_factory=list)
    backlog: int = 0
    seconds: float = 0.0
    #: The host's speed factor around the step.
    factor: float = 1.0

    def samples(self) -> Tuple[List[List[float]], List[List[float]], List[float]]:
        """(write latencies and read latencies, one list per tenant; send
        lags), all from due time."""
        writes: List[List[float]] = [[] for _ in self.plans]
        reads: List[List[float]] = [[] for _ in self.plans]
        lags: List[float] = []
        for tenant, (plan, sent, done) in enumerate(zip(self.plans, self.sent, self.done)):
            for (at, kind, _, _), sent_at, done_at in zip(plan, sent, done):
                due = self.start + at
                lags.append(sent_at - due)
                (writes if kind in WRITES else reads)[tenant].append(done_at - due)
        return writes, reads, lags


def tenant_loop(service: GraphService, plan: Sequence[Event], start: float,
                sent: List[float], done: List[float], results: list) -> Optional[Future]:
    """Send each request when it is due, never earlier, however late we are.

    Only the time and the value of each reply are kept, not its future: a
    list of every future ever sent would be the harness's own garbage for
    the collector to walk, and its pauses would land in the latencies.
    Returns the last future sent; the queue is FIFO, so it resolves last.
    """
    submit = {"insert": service.insert_edge, "delete": service.delete_edge,
              "has": service.has_edge}
    future = None
    for index, (at, kind, u, v) in enumerate(plan):
        delay = start + at - clock()
        if delay > 0:
            time.sleep(delay)
        sent[index] = clock()
        try:
            future = service.successors(u) if kind == "successors" else submit[kind](u, v)
        except Exception as error:  # refused at the door: failed, never completes
            results[index] = error
            continue

        def completed(reply: Future, index=index):
            done[index] = clock()
            error = reply.exception()
            results[index] = reply.result() if error is None else error

        future.add_done_callback(completed)
    return future


def run_step(service: GraphService, plans: List[List[Event]]) -> StepOutcome:
    outcome = StepOutcome(plans)
    for plan in plans:
        outcome.sent.append([0.0] * len(plan))
        outcome.done.append([float("inf")] * len(plan))
        outcome.results.append([UNANSWERED] * len(plan))
    outcome.start = clock() + 0.02
    last: List[Optional[Future]] = [None] * len(plans)

    def tenant(index: int) -> None:
        last[index] = tenant_loop(service, plans[index], outcome.start, outcome.sent[index],
                                  outcome.done[index], outcome.results[index])

    threads = [threading.Thread(target=tenant, name=f"tenant-{index}", args=(index,))
               for index in range(len(plans))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    outcome.backlog = service.pending
    wait_futures([future for future in last if future is not None], timeout=DRAIN_TIMEOUT_S)
    outcome.seconds = clock() - outcome.start
    return outcome


def check_step(ctx: Context, name: str, outcome: StepOutcome, oracle: Oracle) -> None:
    """Replay each tenant's requests through the oracle, in the order sent."""
    apply = {"insert": oracle.insert, "delete": oracle.delete, "has": oracle.has}
    for tenant, (plan, results) in enumerate(zip(outcome.plans, outcome.results)):
        got, want = [], []
        for (_, kind, u, v), result in zip(plan, results):
            if result is UNANSWERED or isinstance(result, BaseException):
                # Rejected, still pending or failed: nothing reached the store
                # that the oracle should mirror.
                ctx.ledger.failure(f"{name}: tenant {tenant} {kind} did not complete")
            elif kind == "successors":
                got.append(sorted(result))
                want.append(oracle.successors(u))
            else:
                got.append(result)
                want.append(apply[kind](u, v))
        ctx.ledger.values(f"{name}: tenant {tenant} results", got, want)


# --------------------------------------------------------------------- #
# The workload
# --------------------------------------------------------------------- #

@dataclass
class TieredInputs:
    warmup: List[Edge]
    bulk: List[Edge]
    steps: Dict[str, List[List[Event]]]


def tiered_service(ctx: Context) -> GraphService:
    tracer = ctx.tracer
    if tracer is None:
        cold = RedisGraphStore
    else:
        def cold():
            return tracer.spans_on(RedisGraphStore(), "integrations", BATCH_CALLS)
    store = TieredStore(num_shards=SHARDS, hot_shards=HOT_SHARDS, cold=cold)
    if tracer is not None:
        tracer.spans_on(store, "tiered", BATCH_CALLS)
    return GraphService(store, own_store=True, max_batch=MAX_BATCH,
                        queue_capacity=QUEUE_CAPACITY, policy="block")


def tiered_inputs(ctx: Context, shard_of: Callable[[int], int]) -> TieredInputs:
    seed = ctx.seed * 16
    rng = random.Random(seed)
    keys = shard_major_keys(rng, shard_of)
    scale = ctx.scale
    steps = {"settle": step_plans(seed + 7, SETTLE_RATE, SETTLE_SECONDS * scale, keys)}
    for index in range(REF_STEPS):
        steps[f"ref_{index}"] = step_plans(seed + 32 + index, REF_RATE,
                                           REF_SECONDS * scale / REF_STEPS, keys)
    overload_s = ctx.sized(OVERLOAD_OPS, 256) / OVERLOAD_RATE
    if ctx.tracer is not None:
        # Half of the overload runs untraced, in one step.
        overload_s /= 2
        steps["overload_untraced"] = step_plans(seed + 1, OVERLOAD_RATE, overload_s, keys)
    for index in range(OVERLOAD_STEPS):
        steps[f"overload_{index}"] = step_plans(seed + 48 + index, OVERLOAD_RATE,
                                                overload_s / OVERLOAD_STEPS, keys)
    if ctx.tracer and ctx.last_round:
        for index, (rate, seconds) in enumerate(LADDER):
            steps[f"at_{rate}"] = step_plans(seed + 4 + index, rate, seconds * scale, keys)
        # Same keys ranked so that popular ones stripe across every shard:
        # the working set no longer fits the two hot shards.
        hashed = list(keys)
        rng.shuffle(hashed)
        steps["cold"] = step_plans(seed + 3, COLD_RATE, COLD_SECONDS * scale, hashed)
    drawn = zipf_edges(rng, keys, ctx.sized(WARMUP_EDGES, 64) + ctx.sized(BULK_EDGES, 256))
    warmup = drawn[:ctx.sized(WARMUP_EDGES, 64)]
    return TieredInputs(warmup, drawn[len(warmup):], steps)


def tier_window(before: dict, after: dict) -> Dict[str, float]:
    """``tiered.*`` counters between two ``tier_stats()`` snapshots."""
    touches = after["touches"] - before["touches"]
    return {
        "tiered.hit_rate": (after["hits"] - before["hits"]) / touches if touches else 0.0,
        "tiered.promotions": after["promotions"] - before["promotions"],
        "tiered.demotions": after["demotions"] - before["demotions"],
    }


class OpenLoop:
    """The open-loop part of one round: steps run, checked and accounted."""

    def __init__(self, ctx: Context, service: GraphService, inputs: TieredInputs,
                 oracle: Oracle):
        self.ctx = ctx
        self.service = service
        self.inputs = inputs
        self.oracle = oracle
        self.layer = ctx.per_layer

    def step(self, name: str, phase: Optional[str] = None) -> StepOutcome:
        """Run step ``name`` as one piece of phase ``phase`` (default: its own name)."""
        plans = self.inputs.steps[name]
        speed = self.ctx.speed
        with self.ctx.phase(phase or name, sum(len(plan) for plan in plans)):
            # The main thread only waits while a step runs: the host's speed is
            # sampled a few times on either side of it instead.
            for _ in range(EDGE_SAMPLES):
                speed.sample()
            outcome = run_step(self.service, plans)
            for _ in range(EDGE_SAMPLES - 1):
                speed.sample()
            outcome.factor = self.ctx.piece(outcome.seconds)
        check_step(self.ctx, name, outcome, self.oracle)
        return outcome

    def p99_ms(self, *outcomes: StepOutcome) -> float:
        """p99 of everything the steps measured, as the clock read it."""
        pooled: List[float] = []
        for outcome in outcomes:
            writes, reads, _ = outcome.samples()
            pooled.extend(sum(writes + reads, []))
        return 1e3 * percentile(pooled, 0.99)

    def ref(self) -> None:
        """The latencies, the generator's own lateness and the rate ladder."""
        ctx, layer = self.ctx, self.layer
        steps = [self.step(f"ref_{index}", "ref") for index in range(REF_STEPS)]
        writes: List[List[float]] = [[] for _ in range(TENANTS)]
        reads: List[List[float]] = [[] for _ in range(TENANTS)]
        lags: List[float] = []
        for outcome in steps:
            step_writes, step_reads, step_lags = outcome.samples()
            lags.extend(step_lags)
            for tenant in range(TENANTS):
                writes[tenant].extend(s / outcome.factor for s in step_writes[tenant])
                reads[tenant].extend(s / outcome.factor for s in step_reads[tenant])
        ctx.latencies(writes, reads)
        late = sum(1 for lag in lags if lag > LATE_S) / len(lags)
        layer["traffic.late_share"] = late
        layer["traffic.send_lag_p99_ms"] = 1e3 * percentile(lags, 0.99)
        layer[f"traffic.p99_ms.at_{REF_RATE}"] = self.p99_ms(*steps)
        if late > 0.2:
            ctx.info["flag"] = (f"the generator sent {late:.0%} of the ref step's requests more "
                                "than 1 ms late: the offered rate was below the stated one")
        if "cold" not in self.inputs.steps:
            return
        backlog = {REF_RATE: steps[-1].backlog}
        for rate, _ in LADDER:
            outcome = self.step(f"at_{rate}")
            layer[f"traffic.p99_ms.at_{rate}"] = self.p99_ms(outcome)
            backlog[rate] = outcome.backlog
        layer["traffic.backlog_end"] = backlog[LADDER[-1][0]]
        layer["traffic.max_rate_ok"] = max(
            (rate for rate, left in backlog.items()
             if layer[f"traffic.p99_ms.at_{rate}"] <= P99_LIMIT_MS and left <= MAX_BATCH),
            default=0)

    def overload(self) -> None:
        """Capacity: more offered than can be served, senders blocked."""
        ctx = self.ctx
        if ctx.tracer:
            with ctx.tracer.suspended():
                plain = run_step(self.service, self.inputs.steps["overload_untraced"])
            check_step(ctx, "overload_untraced", plain, self.oracle)
            untraced = plain.seconds / sum(len(plan) for plan in plain.plans)
        before = self.service.metrics_summary()
        steps = [self.step(f"overload_{index}", "mixed") for index in range(OVERLOAD_STEPS)]
        requests = sum(len(plan) for outcome in steps for plan in outcome.plans)
        ctx.phase_seconds["mixed"] = sum(outcome.seconds for outcome in steps)
        ctx.rate_kops("mixed_kops", "mixed", requests)
        record_service(ctx, before, self.service.metrics_summary())
        if ctx.tracer:
            self.layer["bench.trace_overhead_pct"] = 100.0 * (
                ctx.phase_seconds["mixed"] / requests / untraced - 1.0)

    def cold(self) -> None:
        """The step whose working set does not fit the hot tier."""
        if "cold" not in self.inputs.steps:
            return
        store = self.service.store
        before = store.tier_stats()
        self.layer["tiered.cold_step_p99_ms"] = self.p99_ms(self.step("cold"))
        self.layer["tiered.cold_step_hit_rate"] = tier_window(
            before, store.tier_stats())["tiered.hit_rate"]


def run_serve_open_tiered(ctx: Context) -> None:
    ctx.top_layer = "service"
    ctx.info["fsync_policy"] = "none: no WAL on this workload"

    def build():
        service = tiered_service(ctx)
        inputs = tiered_inputs(ctx, service.store.shard_of)
        client = GraphClient(service, close_service=True)
        client.insert_edges(inputs.warmup)
        # Taken here, where one thread loaded it, the footprint is exact for a
        # seed; after two tenants' interleaved traffic it no longer is.
        ctx.end_to_end["mem_bytes_per_edge"] = client.memory_bytes() / client.num_edges
        # Untimed traffic: the tier policy finds its hot shards (each swap is
        # a whole-shard migration) before anything is measured.
        return inputs, client, run_step(service, inputs.steps["settle"])

    inputs, client, settled = ctx.setup(build)
    store = client.service.store
    oracle = Oracle(inputs.warmup)
    try:
        check_step(ctx, "settle", settled, oracle)
        tiers_before = store.tier_stats()
        loop = OpenLoop(ctx, client.service, inputs, oracle)
        loop.ref()
        loop.overload()
        ctx.per_layer.update(tier_window(tiers_before, store.tier_stats()))
        loop.cold()

        # The bulk phases, on the graph the traffic left plus a bulk load.
        bulk = [edge for edge in inputs.bulk if not oracle.has(*edge)]
        bulk_insert(ctx, client, bulk)
        for u, v in bulk:
            oracle.insert(u, v)
        live = sorted(oracle.edges())
        random.Random(ctx.seed).shuffle(live)
        bulk_has(ctx, client, live)
        bulk_successors(ctx, client, oracle, SUCCESSOR_PASSES)
        client_analytics(ctx, client, oracle, ANALYTICS_ROUNDS)
        # A restart loads with migrations held off.  Under the serving policy
        # one bulk load swaps shards a dozen times and which shards end up hot
        # -- so whether it takes 0.1 s or 0.3 s -- hangs on the order the
        # shards first appear in the file (README, "Findings").
        restored = TieredStore(num_shards=SHARDS, hot_shards=HOT_SHARDS, cold=RedisGraphStore,
                               policy=TouchLRUPolicy(promote_after=1 << 60))
        try:
            restore_from_snapshot(ctx, store, restored, oracle)
        finally:
            restored.close()
        bulk_delete(ctx, client, live)
    finally:
        client.close()
