"""What every workload shares: the run context, phase timing, seeded inputs.

Sizes are per round, written for ``--seconds 15`` (the ``run_seconds`` of
``BENCHMARK.json``) on the 2-cpu reference host, and scale linearly with
``--seconds``: the phases are fixed amounts of work, not time boxes, so the
parent commit and a change are always measured on identical inputs.
"""

from __future__ import annotations

import gc
import random
import resource
import shutil
import statistics
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.datasets.generators import powerlaw_edge_set
from repro.persist import SNAPSHOT_NAME, load_snapshot, write_snapshot

from .hostspeed import HostSpeed
from .oracle import Edge, Ledger, Oracle
from .stats import percentile, samples_beyond
from .tracing import Tracer, clock, maybe_span

#: ``--seconds`` the op counts below are written for.
BASE_SECONDS = 15.0

#: A run is this many **identical** rounds: the same seeded inputs, a fresh
#: deployment, every phase.  Each phase is timed in pieces (a chunk of
#: per-edge calls, one batch call, a block of one client's requests), each
#: piece's time is scaled to the reference speed of the host (``hostspeed``),
#: and a metric is computed from, piece by piece, the median of the rounds:
#: the rounds do the same work, so what differs between them is the host.
#: Set-up runs once per round, so ``setup_s`` is a median of as many set-ups.
ROUNDS = 5

#: Latency percentiles are taken per window of this many consecutive requests
#: of one kind (write or read) of one client, the way a dashboard reports
#: "p95 per interval".  Window by window the median of the rounds is kept
#: (the same requests) and the median window is reported.  A pause that hits
#: one window in a hundred (the host descheduled for 100 ms, a collection)
#: moves the p99 of everything pooled from 0.5 ms to tens of ms and back from
#: run to run; it does not move the median window.  Rare long stalls are what
#: the ``*_ms_max`` per-layer metrics are for.
LATENCY_WINDOW = 250
#: The highest percentile with ten samples beyond it in a window of that size.
TAIL = 0.95


def window_size(samples: int) -> int:
    """Samples per window when ``samples`` are cut into whole windows."""
    return samples // max(1, samples // LATENCY_WINDOW)


def window_percentiles(samples: Sequence[float]) -> Tuple[List[float], List[float]]:
    """The p50 and the p95, in ms, of each window of ``samples`` (seconds)."""
    size = window_size(len(samples))
    windows = [samples[start:start + size]
               for start in range(0, len(samples) - size + 1, size)]
    return ([1e3 * statistics.median(window) for window in windows],
            [1e3 * percentile(window, TAIL) for window in windows])


PACKAGE_DIR = Path(__file__).resolve().parent
REPO_ROOT = PACKAGE_DIR.parents[1]
#: Where run outputs and the stores' directories go (inside the checkout).
RESULTS_DIR = PACKAGE_DIR / "results"


@dataclass
class Context:
    """One run of one workload: its arguments and everything it measured.

    ``end_to_end``, ``per_layer``, ``phase_seconds``, ``pieces`` and
    ``windows`` belong to the round in progress; :meth:`finish` replaces
    ``end_to_end`` by the run's values (see :data:`ROUNDS`) and ``per_layer``
    by the median over the rounds.  Seconds in ``pieces`` and ``windows`` are
    at the host's reference speed; ``phase_seconds`` and the spans are as
    the clock read them.
    """

    workload: str
    seed: int
    seconds: float
    tracer: Optional[Tracer]
    ledger: Ledger = field(default_factory=Ledger)
    end_to_end: Dict[str, float] = field(default_factory=dict)
    per_layer: Dict[str, float] = field(default_factory=dict)
    info: Dict[str, object] = field(default_factory=dict)
    phase_seconds: Dict[str, float] = field(default_factory=dict)
    speed: HostSpeed = field(default_factory=HostSpeed)
    #: Per phase, the seconds of each of its pieces, in the order they ran.
    pieces: Dict[str, List[float]] = field(default_factory=dict)
    #: Per latency metric, one value per window of LATENCY_WINDOW requests.
    windows: Dict[str, List[float]] = field(default_factory=dict)
    #: Per timing metric: (phase, operations or 0 for a duration, how many
    #: clients ran the phase's pieces side by side).
    timings: Dict[str, Tuple[str, int, int]] = field(default_factory=dict)
    #: Layer whose public functions the runner itself calls in each phase.
    top_layer: str = "bench"
    round: int = 0
    rounds: List[Dict[str, dict]] = field(default_factory=list)
    open_phase: Optional[str] = None

    @property
    def scale(self) -> float:
        return self.seconds / BASE_SECONDS

    def sized(self, count: int, floor: int = 1) -> int:
        """``count`` operations per round at ``--seconds 15``, scaled to this run."""
        return max(floor, int(count * self.scale))

    @property
    def last_round(self) -> bool:
        return self.round == ROUNDS - 1

    @property
    def workdir(self) -> Path:
        return RESULTS_DIR / f"work-{self.workload}"

    def start_round(self, index: int) -> None:
        self.round = index
        if self.tracer:
            self.tracer.forget_targets()
        self.end_to_end, self.per_layer, self.phase_seconds = {}, {}, {}
        self.pieces, self.windows = {}, {}
        self.rounds.append({"end_to_end": self.end_to_end, "per_layer": self.per_layer,
                            "phase_seconds": self.phase_seconds, "pieces": self.pieces,
                            "windows": self.windows})

    def setup(self, build: Callable[[], object]):
        """Time one set-up: input generation, deployment build, untimed preload.

        What set-up allocated -- above all the benchmark's own inputs, hundreds
        of thousands of tuples -- is then frozen out of the garbage collector's
        sight.  Collection stays on for everything the program allocates while
        it is measured, as it is for users; they do not also pay for scanning a
        test harness's input lists on every full collection.
        """
        gc.unfreeze()
        self.speed.refresh()
        started = clock()
        # Untimed preloads go through the deployment too: no spans for them.
        with self.tracer.suspended() if self.tracer else nullcontext():
            built = build()
        seconds = clock() - started
        self.pieces["setup"] = [seconds / self.speed.around(seconds)]
        self.duration("setup_s", "setup")
        gc.collect()
        gc.freeze()
        return built

    @contextmanager
    def phase(self, name: str, ops: int = 1) -> Iterator[None]:
        """Time one phase; when tracing it is also the ambient span.

        The calls made inside it report their own seconds with :meth:`piece`;
        a phase that reports none is one piece.
        """
        with maybe_span(self.tracer, f"{self.top_layer}.phase.{name}", ops, ambient=True):
            self.open_phase = name
            self.speed.refresh()
            started = clock()
            try:
                yield
            finally:
                self.phase_seconds[name] = clock() - started
                if name not in self.pieces:
                    self.piece(self.phase_seconds[name])
                self.open_phase = None

    def piece(self, seconds: float) -> float:
        """One piece of the phase in progress, timed on this thread and just
        ended.  Returns the host's speed factor around it: what ``seconds``
        was divided by (1.0 outside a phase, where nothing is kept)."""
        if self.open_phase is None:
            return 1.0
        factor = self.speed.around(seconds)
        self.pieces.setdefault(self.open_phase, []).append(seconds / factor)
        return factor

    def rate_kops(self, metric: str, phase: str, ops: int, clients: int = 1) -> None:
        """``metric`` is ``ops`` per second of ``phase``, whose pieces
        ``clients`` clients ran side by side."""
        self.timings[metric] = (phase, ops, clients)
        self.end_to_end[metric] = ops * clients / sum(self.pieces[phase]) / 1e3

    def duration(self, metric: str, phase: str) -> None:
        """``metric`` is the seconds of ``phase``."""
        self.timings[metric] = (phase, 0, 1)
        self.end_to_end[metric] = sum(self.pieces[phase])

    def latencies(self, writes: Sequence[List[float]], reads: Sequence[List[float]],
                  lockstep: bool = False) -> None:
        """This round's write and read latencies: one list per client, each in
        the order that client made its requests.

        Kept as the p50 and p95, in ms, of each window.  ``lockstep`` says the
        rounds make the same requests against the same state (one client, no
        queue), so that request by request the rounds can be told apart from
        the host: then the samples themselves are kept and windowed once the
        rounds are over.
        """
        for kind, clients in (("write", writes), ("read", reads)):
            pooled = [sample for samples in clients for sample in samples]
            if lockstep:
                self.windows[f"{kind}_samples"] = pooled
            else:
                p50s = self.windows.setdefault(f"{kind}_p50_ms", [])
                p95s = self.windows.setdefault(f"{kind}_p95_ms", [])
                for samples in clients:
                    got = window_percentiles(samples)
                    p50s.extend(got[0])
                    p95s.extend(got[1])
            sizes = [window_size(len(group)) for group in ([pooled] if lockstep else clients)]
            self.info[f"{kind}_samples"] = ROUNDS * len(pooled)
            self.info[f"{kind}_windows"] = len(pooled) // max(sizes)
            self.info[f"{kind}_samples_beyond_p95_per_window"] = samples_beyond(min(sizes), TAIL)
            # Everything pooled, for the traced run: the tail the windows leave out.
            self.per_layer[f"bench.{kind}_p99_ms"] = 1e3 * percentile(pooled, 0.99)

    def across_rounds(self, table: str, name: str) -> List[float]:
        """Entry by entry, the median over the rounds of ``table[name]``.

        The rounds do identical work, so their lists line up; should they not
        (a request failed), the round whose total is the median stands for all.
        """
        lists = [entry[table][name] for entry in self.rounds if name in entry[table]]
        if len({len(values) for values in lists}) == 1:
            return [statistics.median(column) for column in zip(*lists)]
        return sorted(lists, key=sum)[len(lists) // 2]

    def finish(self) -> None:
        """The run's metrics out of its rounds, plus what the process reports once."""
        for table in ("end_to_end", "per_layer"):
            values: Dict[str, List[float]] = {}
            for entry in self.rounds:
                for name, value in entry[table].items():
                    values.setdefault(name, []).append(value)
            setattr(self, table, {name: statistics.median(seen)
                                  for name, seen in values.items()})
        for metric, (phase, ops, clients) in self.timings.items():
            seconds = sum(self.across_rounds("pieces", phase)) / clients
            self.end_to_end[metric] = ops / seconds / 1e3 if ops else seconds
        for name in self.rounds[-1]["windows"]:
            values = self.across_rounds("windows", name)
            if name.endswith("_samples"):
                kind = name[:-len("_samples")]
                p50s, p95s = window_percentiles(values)
                self.end_to_end[f"{kind}_p50_ms"] = statistics.median(p50s)
                self.end_to_end[f"{kind}_p95_ms"] = statistics.median(p95s)
            else:
                self.end_to_end[name] = statistics.median(values)
        factors = sorted(self.speed.factors) or [1.0]
        self.info["host_speed_factor"] = {
            "samples": len(self.speed.factors), "min": factors[0],
            "median": statistics.median(factors), "p90": factors[len(factors) * 9 // 10],
            "max": factors[-1]}
        self.end_to_end["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        self.end_to_end["ok_rate"] = self.ledger.ok_rate


def fresh_dir(path: Path) -> Path:
    """An empty directory at ``path`` (a previous run's leftovers removed)."""
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def directory_bytes(path: Path) -> int:
    return sum(entry.stat().st_size for entry in path.iterdir() if entry.is_file())


def restore_from_snapshot(ctx: Context, store, fresh, oracle: Oracle) -> None:
    """``recover_s`` and ``disk_bytes_per_edge`` of a store that has no WAL.

    Such a store restarts from an explicit ``write_snapshot`` file, loaded
    into ``fresh`` with ``load_snapshot``: ``persist``'s snapshot codec runs,
    its log does not.
    """
    directory = fresh_dir(ctx.workdir)
    try:
        snapshot = directory / SNAPSHOT_NAME
        write_snapshot(snapshot, store)
        ctx.end_to_end["disk_bytes_per_edge"] = snapshot.stat().st_size / store.num_edges
        with ctx.phase("recover", store.num_edges):
            load_snapshot(snapshot, fresh)
        ctx.duration("recover_s", "recover")
        ctx.ledger.edge_set("recovered edges", fresh.edges(), oracle)
    finally:
        shutil.rmtree(directory, ignore_errors=True)


# --------------------------------------------------------------------- #
# Stream inputs
# --------------------------------------------------------------------- #

@dataclass
class StreamInputs:
    """The edge stream of the two ``stream_*`` workloads and its expectations."""

    graph: List[Edge]              # the initial stream, all distinct
    absent: List[Edge]             # one guaranteed miss per graph edge
    mixed: List[Tuple[str, List[Edge]]]    # (kind, block of edges), in order
    mixed_expected: List[List[bool]]       # per block, per edge
    before_mixed: Oracle           # the model after the initial stream
    after_mixed: Oracle            # ... and after the mixed phase
    live: List[Edge]               # after_mixed's edges, in a seeded order

    @property
    def mixed_ops(self) -> int:
        return sum(len(block) for _, block in self.mixed)


#: Node identifiers are seeded random 62-bit integers (the paper's 8-byte
#: ids).  Dense ids ``0..N-1`` drive the multiply-shift tables into stalls that
#: come and go with the seed (README, "Findings"), which no bound survives.
ID_BITS = 62


def random_ids(rng: random.Random, count: int) -> List[int]:
    """``count`` distinct identifiers below ``2**ID_BITS``."""
    return rng.sample(range(1 << ID_BITS), count)


def miss_for(edge: Edge, position: int) -> Edge:
    """A probe that cannot be stored: no identifier has bit ``ID_BITS`` set.

    Even positions keep the source and miss in its neighbour table, odd ones
    miss on the source itself, so both miss paths are walked.
    """
    u, v = edge
    absent = 1 << ID_BITS
    return (u, v | absent) if position % 2 == 0 else (u | absent, v)


def stream_inputs(seed: int, edges: int, block: int) -> StreamInputs:
    """Power-law stream of ``edges`` distinct edges over ``edges / 8`` nodes
    (zipf 1.0 in and out) + a steady-size mixed phase of two thirds as many
    operations, with expected results.

    ``block`` is how many consecutive mixed operations share a kind: 1 for
    the per-edge API, the batch size for the batch API.  Kinds cycle
    has / insert-new / has / delete-existing, and every second ``has`` probe
    is a miss, so the mix is 50 % has (half of them misses), 25 % inserts of
    new edges and 25 % deletes of stored ones, and the graph keeps its size.
    """
    rng = random.Random(seed)
    num_edges = max(256, edges)
    num_nodes = max(64, num_edges // 8)
    mixed_ops = max(4 * block, 2 * num_edges // 3)
    blocks = mixed_ops // block
    drawn = powerlaw_edge_set(num_nodes, num_edges + (blocks // 4 + 1) * block, rng,
                              out_exponent=1.0, in_exponent=1.0)
    ids = random_ids(rng, num_nodes)
    drawn = [(ids[u], ids[v]) for u, v in drawn]
    graph, unseen = drawn[:num_edges], drawn[num_edges:]
    absent = [miss_for(edge, i) for i, edge in enumerate(graph)]

    before = Oracle(graph)
    model = before.copy()
    present = list(graph)
    mixed: List[Tuple[str, List[Edge]]] = []
    expected: List[List[bool]] = []
    probes = 0
    for index in range(blocks):
        kind = ("has", "insert", "has", "delete")[index % 4]
        if kind == "insert":
            edges = [unseen.pop() for _ in range(block)]
            expected.append([model.insert(u, v) for u, v in edges])
            present.extend(edges)
        elif kind == "delete":
            edges = []
            for _ in range(block):
                at = rng.randrange(len(present))
                present[at], present[-1] = present[-1], present[at]
                edges.append(present.pop())
            expected.append([model.delete(u, v) for u, v in edges])
        else:
            edges = []
            for _ in range(block):
                edge = present[rng.randrange(len(present))]
                edges.append(edge if probes % 2 == 0 else miss_for(edge, probes // 2))
                probes += 1
            expected.append([model.has(u, v) for u, v in edges])
        mixed.append((kind, edges))
    return StreamInputs(graph, absent, mixed, expected, before, model, present)
