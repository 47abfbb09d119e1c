"""Unit tests of the benchmark's own arithmetic and instruments."""

from __future__ import annotations

import time
from concurrent.futures import Future

import pytest

from .common import Context
from .hostspeed import HostSpeed
from .compare import compare_documents, judge
from .oracle import Ledger, Oracle
from .stats import percentile, samples_beyond, spread
from .tiered import StepOutcome, run_step, shard_major_keys, step_plans
from .tracing import NameTotals, Tracer, covered, self_times

# --------------------------------------------------------------------- #
# Percentiles
# --------------------------------------------------------------------- #


def test_percentile_is_nearest_rank():
    samples = list(range(1, 101))            # 1..100
    assert percentile(samples, 0.50) == 50
    assert percentile(samples, 0.99) == 99
    assert percentile(samples, 1.00) == 100
    assert percentile([5.0], 0.99) == 5.0
    # Always an observed value, never interpolated; order does not matter.
    assert percentile([3, 1, 2, 10], 0.75) == 3
    assert percentile([3, 1, 2, 10], 0.76) == 10


def test_percentile_rejects_nonsense():
    with pytest.raises(ValueError):
        percentile([], 0.5)
    with pytest.raises(ValueError):
        percentile([1], 0.0)


def test_samples_beyond_counts_the_tail():
    assert samples_beyond(100, 0.99) == 1
    assert samples_beyond(10_000, 0.99) == 100
    assert samples_beyond(1, 0.99) == 0


def test_spread_is_interquartile_share_of_median():
    values = [10, 11, 12, 13, 14, 15, 16, 17, 18, 19]
    assert spread(values) == pytest.approx((17.25 - 11.75) / 14.5)
    assert spread([10, 12]) == pytest.approx(2 / 11)
    assert spread([7]) == 0.0


# --------------------------------------------------------------------- #
# Self time
# --------------------------------------------------------------------- #

def span(ident, name, start, end, parent=None, ops=1, summed=0):
    return [ident, name, start, end, parent, ident if parent is None else parent, ops, summed]


def test_covered_merges_overlaps_and_clips():
    assert covered([(1, 3), (2, 5), (7, 8)], 0, 10) == pytest.approx(5)
    assert covered([(-5, 2), (9, 20)], 0, 10) == pytest.approx(3)
    assert covered([], 0, 10) == 0


def test_self_time_subtracts_nested_and_overlapping_children():
    records = [
        span(0, "service.phase.mixed", 0.0, 10.0),
        span(1, "persist.insert_edges", 1.0, 5.0, parent=0),
        span(2, "sharded.insert_edges", 2.0, 4.0, parent=1),
        # Overlaps span 1 (another thread): the union 1..6 is covered once.
        span(3, "persist.sync", 4.0, 6.0, parent=0),
        # 1.5 s of per-edge calls inside span 2, position not meaningful.
        span(4, "core.insert_edge", 2.0, 3.5, parent=2, ops=100, summed=1),
    ]
    own = self_times(records)
    assert own[0] == pytest.approx(5.0)       # 10 - |1..6|
    assert own[1] == pytest.approx(2.0)       # 4 - 2
    assert own[2] == pytest.approx(0.5)       # 2 - 1.5 summed
    assert own[3] == pytest.approx(2.0)
    assert own[4] == pytest.approx(1.5)
    totals = NameTotals(records)
    assert totals.self_us_per_op("core.insert_edge") == pytest.approx(15_000)
    assert totals.layer_self_s("persist") == pytest.approx(4.0)


def test_self_time_never_goes_negative():
    records = [span(0, "a", 0.0, 1.0), span(1, "b", 0.0, 2.0, parent=0, summed=1)]
    assert self_times(records)[0] == 0.0


class Probe:
    def __init__(self):
        self.calls = 0

    def batch(self, items):
        for item in items:
            self.single(item)
        return len(items)

    def single(self, item):
        self.calls += 1
        return item


def test_tracer_wraps_instances_and_suspends():
    tracer = Tracer()
    probe = Probe()
    tracer.spans_on(probe, "layer", ("batch",))
    tracer.leaves_on(probe, "layer", ("single",))
    assert isinstance(probe, Probe)
    with tracer.span("bench.phase.x", ambient=True):
        assert probe.batch([1, 2, 3]) == 3
    names = sorted(record[1] for record in tracer.records)
    assert names == ["bench.phase.x", "layer.batch", "layer.single"]
    by_name = {record[1]: record for record in tracer.records}
    assert by_name["layer.batch"][4] == by_name["bench.phase.x"][0]      # parent
    assert by_name["layer.single"][6:] == [3, 1]                         # 3 calls, summed
    assert by_name["layer.batch"][5] == by_name["bench.phase.x"][5]      # one batch id
    recorded = len(tracer.records)
    with tracer.suspended():
        assert "batch" not in vars(probe)
        probe.batch([4])
    assert len(tracer.records) == recorded
    assert "batch" in vars(probe)


# --------------------------------------------------------------------- #
# Oracle and ledger
# --------------------------------------------------------------------- #

def test_oracle_is_a_plain_set_model():
    oracle = Oracle([(1, 2), (1, 3), (2, 3)])
    assert oracle.insert(1, 2) is False and oracle.insert(3, 1) is True
    assert oracle.delete(9, 9) is False and oracle.delete(2, 3) is True
    assert oracle.successors(1) == [2, 3] and oracle.successors(2) == []
    assert oracle.edges() == {(1, 2), (1, 3), (3, 1)}
    assert oracle.bfs_count(1) == 3
    clone = oracle.copy()
    clone.insert(5, 6)
    assert not oracle.has(5, 6)


def test_ledger_counts_mismatches_against_attempts():
    ledger = Ledger()
    ledger.values("has", [True, False, True], [True, True, True])
    ledger.count("insert", 8, 10, ops=10)
    ledger.failure("rejected")
    ledger.edge_set("dump", [(1, 2), (1, 2)], Oracle([(1, 2), (3, 4)]))
    assert (ledger.attempted, ledger.failed) == (3 + 10 + 1 + 2, 1 + 2 + 1 + 2)
    assert 0 < ledger.ok_rate < 1
    corrupt = Ledger(corrupt_first=True)
    corrupt.values("has", [True], [True])
    assert corrupt.failed == 1


# --------------------------------------------------------------------- #
# A run out of its rounds
# --------------------------------------------------------------------- #

def test_run_takes_the_median_round_piece_by_piece():
    ctx = Context("w", seed=1, seconds=15.0, tracer=None)
    rounds = (([0.010, 0.030, 0.010], [2.0, 9.0]),      # second piece hit a slow spell
              ([0.016, 0.020, 0.010], [3.0, 4.0]),      # first piece did
              ([0.010, 0.020, 0.016], [2.5, 5.0]))
    for index, (pieces, p99s) in enumerate(rounds):
        ctx.start_round(index)
        ctx.pieces["insert"] = pieces
        ctx.rate_kops("insert_kops", "insert", 4000)
        ctx.pieces["recover"] = [sum(pieces)]
        ctx.duration("recover_s", "recover")
        ctx.windows["write_p99_ms"] = p99s
    ctx.finish()
    assert ctx.end_to_end["insert_kops"] == pytest.approx(4000 / 0.040 / 1e3)
    assert ctx.end_to_end["recover_s"] == pytest.approx(0.046)
    assert ctx.end_to_end["write_p99_ms"] == pytest.approx((2.5 + 5.0) / 2)


def test_pieces_are_scaled_to_the_reference_speed():
    class TwiceAsSlow(HostSpeed):
        def sample(self) -> float:
            self.times.append(time.perf_counter())
            self.factors.append(2.0)
            return 2.0

    ctx = Context("w", seed=1, seconds=15.0, tracer=None, speed=TwiceAsSlow())
    ctx.start_round(0)
    with ctx.phase("insert"):
        assert ctx.piece(0.5) == 2.0
        assert ctx.piece(0.3) == 2.0
    assert ctx.piece(1.0) == 1.0                         # outside a phase: not kept
    assert ctx.pieces["insert"] == pytest.approx([0.25, 0.15])
    assert HostSpeed().sample() > 0


def test_a_piece_is_scaled_by_the_samples_around_it():
    speed = HostSpeed()
    speed.times, speed.factors = [1.0, 1.5, 2.0, 2.5, 3.005], [1.0, 2.0, 3.0, 5.0, 7.0]
    assert speed.between(2.1, 2.4) == pytest.approx(3.0)            # 0.2 s back: the one at 2.0
    assert speed.between(2.1, 3.0) == pytest.approx(5.0)            # ... 2.5 and just after the end
    assert speed.between(1.6, 1.9) == pytest.approx(2.0)
    assert speed.between(4.0, 4.1) == 7.0                           # none around: the latest before
    assert HostSpeed().between(0.0, 1.0) == 1.0


def test_side_by_side_clients_share_the_phase_time():
    ctx = Context("w", seed=1, seconds=15.0, tracer=None)
    ctx.start_round(0)
    ctx.pieces["mixed"] = [0.5, 0.5, 0.4, 0.6]          # two clients, one second each
    ctx.rate_kops("mixed_kops", "mixed", 2000, clients=2)
    ctx.finish()
    assert ctx.end_to_end["mixed_kops"] == pytest.approx(2.0)


# --------------------------------------------------------------------- #
# Open loop
# --------------------------------------------------------------------- #

def test_schedule_is_a_function_of_the_seed():
    keys = list(range(1000, 1000 + 2 * 4096))
    first = step_plans(7, 500, 0.5, keys)
    assert first == step_plans(7, 500, 0.5, keys)
    assert first != step_plans(8, 500, 0.5, keys)
    for tenant, plan in enumerate(first):
        own = set(keys[tenant::2])      # interleaved: one popularity ranking
        assert plan and all(u in own and v in own for _, _, u, v in plan)
        assert [at for at, *_ in plan] == sorted(at for at, *_ in plan)


def test_shard_major_keys_group_by_shard():
    import random

    keys = shard_major_keys(random.Random(3), lambda key: key % 8)
    assert len(keys) == len(set(keys)) == 8192
    assert keys == shard_major_keys(random.Random(3), lambda key: key % 8)
    shards = [key % 8 for key in keys]
    assert all(len(set(shards[start:start + 1024])) == 1 for start in range(0, 8192, 1024))


class SlowService:
    """Completes each request inline after ``busy_s``: the sender falls behind."""

    pending = 0

    def __init__(self, busy_s: float):
        self.busy_s = busy_s

    def has_edge(self, u, v) -> Future:
        time.sleep(self.busy_s)
        future: Future = Future()
        future.set_result(False)
        return future

    insert_edge = delete_edge = has_edge


def test_latency_counts_from_due_time_not_send_time():
    busy = 0.03
    plan = [(0.0, "has", 1, 2), (0.0, "has", 1, 2), (0.0, "has", 1, 2)]
    outcome = run_step(SlowService(busy), [plan])
    _, (reads,), lags = outcome.samples()
    # All three were due at once; the third waited behind the first two.
    assert reads[2] >= 3 * busy - 0.005
    assert lags[2] >= 2 * busy - 0.005
    assert reads[2] - lags[2] < 2 * busy       # what timing from send would report
    assert reads == sorted(reads)


def test_step_outcome_marks_unanswered_requests_as_infinite():
    outcome = StepOutcome([[(0.0, "insert", 1, 2)]], start=0.0, sent=[[0.001]],
                          done=[[float("inf")]], results=[[None]])
    writes, reads, lags = outcome.samples()
    assert writes == [[float("inf")]] and reads == [[]] and lags == [0.001]


# --------------------------------------------------------------------- #
# compare
# --------------------------------------------------------------------- #

def summary(median, spread_share=0.0):
    return {"median": median, "spread": spread_share}


def test_judge_separates_regression_unresolved_and_ok():
    assert judge(summary(100), summary(80), "higher", 0.10)[0] == "regression"
    assert judge(summary(100), summary(95), "higher", 0.10)[0] == "ok"
    assert judge(summary(100), summary(95, 0.2), "higher", 0.10)[0] == "unresolved"
    assert judge(summary(100), summary(130), "higher", 0.10)[0] == "improved"
    assert judge(summary(1.0), summary(1.2), "lower", 0.10)[0] == "regression"
    assert judge(summary(1.0), summary(0.8), "lower", 0.10)[0] == "improved"


def test_compare_fails_on_regression_and_on_more_failures():
    spec = {"end_to_end": [{"name": "insert_kops", "unit": "kops", "better": "higher",
                            "bound": 0.1}]}

    def document(median, failed):
        return {"workloads": {"w": {"attempted": 100, "failed": failed, "end_to_end": {
            "insert_kops": {"median": median, "spread": 0.01}}}}}

    rows, failures = compare_documents(spec, document(100, 0), document(99, 0))
    assert [row["verdict"] for row in rows] == ["ok"] and not failures
    _, failures = compare_documents(spec, document(100, 0), document(70, 0))
    assert len(failures) == 1 and "insert_kops @ w" in failures[0]
    _, failures = compare_documents(spec, document(100, 0), document(100, 3))
    assert len(failures) == 1 and "operations failed" in failures[0]
