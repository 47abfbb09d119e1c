"""Golden counts: the modelled cost of one fixed stream, pinned to literals.

The hot path of :mod:`repro.core` may be rewritten for wall-clock speed, but
the data structure it implements may not move: hash values, bucket contents,
victim choice, RNG consumption, expansion points, denylist contents and
iteration order decide every ``Counters`` field and ``memory_bytes()``.  This
test drives one seeded power-law stream through every graph variant and
compares, at six checkpoints, the counters, the structure summary, the
modelled memory and digests of ``edges()`` / ``successors(u)`` order and of
every operation's return value with literals recorded at commit d70e5f0 (the
parent of the hot-path rewrite).  The ``mult`` variants were re-recorded once,
on top of commit 9bb021d, when ``MultiplyShiftHash`` began to derive its
constants with splitmix64 (placement follows the constants); ``bob`` and
``modular`` still hold the d70e5f0 literals, and ``tiny_lcht`` was added then.

The same stream runs a second time through the batch calls --
``insert_edges``, ``has_edges`` and ``successors_many`` in chunks of
``CHUNK`` items, deletes one edge at a time -- and every checkpoint must
reproduce the same literals, except the operation results, which the batch
calls return in another shape and are compared as counts.

The literals live in ``golden_counts.json`` beside this file.  To re-record
after a change that is *meant* to move the counts, run
``PYTHONPATH=src python tests/core/test_golden_counts.py``: it prints one line
per variant and checkpoint that moved, with every changed field as
``old -> new``.
"""

import hashlib
import json
import random
from itertools import groupby
from operator import itemgetter
from pathlib import Path

import pytest

from repro import CuckooGraph, CuckooGraphConfig, WeightedCuckooGraph
from repro.core.multiedge import MultiEdgeCuckooGraph

GOLDEN_PATH = Path(__file__).with_name("golden_counts.json")
SEED = 20250928
NUM_NODES = 1200
NUM_DRAWS = 8000

#: Items per call in the batch lane.
CHUNK = 256

#: A configuration small enough that kick-out failures, both denylists and
#: reverse transformations all fire on this stream.
TIGHT = dict(d=2, T=6, initial_scht_length=2, initial_lcht_length=4)

#: One cell per bucket and one kick per try, so the L-CHT fails between any
#: two expansions and the L-DL holds cells once the inserts end, whatever the
#: hash constants (``test_tiny_lcht_parks_cells_for_any_seed``).
TINY_LCHT = dict(d=1, T=1, initial_scht_length=2, initial_lcht_length=2)

VARIANTS = {
    "basic": lambda: CuckooGraph(),
    "weighted": lambda: WeightedCuckooGraph(),
    "multiedge": lambda: MultiEdgeCuckooGraph(),
    "no_denylist": lambda: CuckooGraph(CuckooGraphConfig(use_denylist=False)),
    "bob": lambda: CuckooGraph(CuckooGraphConfig(hash_family="bob")),
    "modular": lambda: CuckooGraph(CuckooGraphConfig(hash_family="modular")),
    "tight": lambda: CuckooGraph(CuckooGraphConfig(**TIGHT)),
    "tight_weighted": lambda: WeightedCuckooGraph(CuckooGraphConfig(**TIGHT)),
    "tight_no_denylist": lambda: CuckooGraph(
        CuckooGraphConfig(use_denylist=False, **TIGHT)),
    "tight_collapse": lambda: CuckooGraph(
        CuckooGraphConfig(collapse_chain_to_slots=True, **TIGHT)),
    "tiny_lcht": lambda: CuckooGraph(CuckooGraphConfig(**TINY_LCHT)),
}


def digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def powerlaw_stream(seed: int = SEED) -> list:
    """``NUM_DRAWS`` edges (duplicates included) between random 62-bit ids,
    sources and destinations both drawn with a cubic skew."""
    rng = random.Random(seed)
    ids = [rng.getrandbits(62) for _ in range(NUM_NODES)]
    return [
        (ids[int(NUM_NODES * rng.random() ** 3)], ids[int(NUM_NODES * rng.random() ** 3)])
        for _ in range(NUM_DRAWS)
    ]


def checkpoint(graph, sources, results) -> dict:
    """Everything observable about the structure, in a comparable form."""
    edges = list(graph.edges())
    successors = [graph.successors(u) for u in sources]
    degrees = [graph.out_degree(u) for u in sources]
    return {
        "edges": digest(edges),
        "successors": digest(successors),
        "degrees": digest(degrees),
        "results": digest(results),
        "summary": graph.structure_summary(),
        "memory_bytes": graph.memory_bytes(),
        "counters": graph.counters.snapshot(),
    }


def chunked(items: list) -> list:
    return [items[start:start + CHUNK] for start in range(0, len(items), CHUNK)]


def apply(graph, ops: list, batch: bool) -> list:
    """Run ``(call, u, v)`` ops in order.  The batch lane sends each run of
    ``insert_edge`` or ``has_edge`` ops as ``insert_edges`` / ``has_edges``
    calls of at most ``CHUNK`` edges; an ``insert_edges`` result is a count."""
    results = []
    for call, run in groupby(ops, key=itemgetter(0)):
        edges = [(u, v) for _, u, v in run]
        if not batch or call == "delete_edge":
            method = getattr(graph, call)
            results += [method(u, v) for u, v in edges]
        elif call == "has_edge":
            for chunk in chunked(edges):
                results += graph.has_edges(chunk)
        else:
            results += [graph.insert_edges(chunk) for chunk in chunked(edges)]
    return results


def tally(results: list) -> int:
    """``results`` as one count: true outcomes plus successor-list lengths
    (the form in which both lanes' results compare)."""
    return sum(len(result) if isinstance(result, list) else int(result) for result in results)


def run_stream(graph, seed: int = SEED, batch: bool = False) -> tuple[dict, dict]:
    """insert -> has hits and misses -> successors -> delete half ->
    interleaved mix -> delete the rest; one checkpoint after each phase.
    Returns the checkpoints and each phase's :func:`tally`."""
    stream = powerlaw_stream(seed)
    rng = random.Random(seed ^ 0xC0DE)
    sources = list(dict.fromkeys(u for u, _ in stream))
    miss = 1 << 62
    record, tallies = {}, {}

    def close_phase(phase, results):
        record[phase] = checkpoint(graph, sources, results)
        tallies[phase] = tally(results)

    close_phase("insert", apply(graph, [("insert_edge", u, v) for u, v in stream], batch))

    queries = stream[::3] + [(u, v | miss) for u, v in stream[::5]]
    queries += [(u | miss, v) for u, v in stream[::7]]
    close_phase("has", apply(graph, [("has_edge", u, v) for u, v in queries], batch))

    nodes = sources + [miss, miss + 1]
    if batch:
        results = [found for chunk in chunked(nodes)
                   for found in graph.successors_many(chunk).values()]
    else:
        results = [graph.successors(u) for u in nodes]
    results += [graph.has_node(u) for u in sources[::4] + [miss]]
    close_phase("successors", results)

    distinct = list(dict.fromkeys(stream))
    rng.shuffle(distinct)
    half = len(distinct) // 2
    close_phase("delete_half",
                apply(graph, [("delete_edge", u, v) for u, v in distinct[:half]], batch))

    mixed = []
    for index, (u, v) in enumerate(distinct):
        mixed.append([("insert_edge", u, v), ("delete_edge", u, v), ("has_edge", u, v),
                      ("insert_edge", v, u)][index % 4])
    close_phase("mixed", apply(graph, mixed, batch))

    # Weighted edges need one delete per unit of weight: go round until empty.
    results = []
    for _ in range(NUM_DRAWS):
        remaining = list(graph.edges())
        if not remaining:
            break
        results += [graph.delete_edge(u, v) for u, v in remaining]
    close_phase("delete_rest", results)
    return record, tallies


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_counts_match_parent_commit(variant, golden):
    record, _ = run_stream(VARIANTS[variant]())
    for phase, got in record.items():
        assert got == golden[variant][phase], (
            f"{variant}: state diverged after phase {phase!r}")
    assert record["delete_rest"]["summary"]["num_edges"] == 0


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_batch_calls_reproduce_the_per_edge_counts(variant, golden):
    """The batch lane leaves every checkpoint where the per-edge literals
    are, and its results count the same outcomes as the per-edge lane's."""
    record, tallies = run_stream(VARIANTS[variant](), batch=True)
    _, per_edge_tallies = run_stream(VARIANTS[variant]())
    for phase, got in record.items():
        got = dict(got)
        del got["results"]
        expected = {key: value for key, value in golden[variant][phase].items()
                    if key != "results"}
        assert got == expected, f"{variant}: batch lane diverged after phase {phase!r}"
    assert tallies == per_edge_tallies


def test_stream_exercises_every_mechanism(golden):
    """The pin is only worth something if the stream reaches the rare paths."""
    basic = golden["basic"]["insert"]
    assert basic["counters"]["expansions"] > 10
    assert basic["counters"]["kicks"] > 0
    assert basic["summary"]["nodes_with_scht_chain"] > 10
    assert len(basic["summary"]["lcht_tables"]) > 1
    tight = golden["tight"]
    assert tight["insert"]["counters"]["insert_failures"] > 0
    assert tight["insert"]["summary"]["small_denylist_entries"] > 0
    assert golden["tiny_lcht"]["insert"]["summary"]["large_denylist_entries"] > 0
    assert tight["has"]["counters"]["denylist_hits"] > tight["insert"]["counters"]["denylist_hits"]
    assert tight["delete_rest"]["counters"]["contractions"] > 0
    assert golden["tight_no_denylist"]["insert"]["counters"]["insert_failures"] > 0


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_tiny_lcht_parks_cells_for_any_seed(seed):
    """L-DL parking in the pinned stream follows from the configuration, not
    from where one set of hash constants happens to put the keys."""
    graph = CuckooGraph(CuckooGraphConfig(seed=seed, **TINY_LCHT))
    for u, v in powerlaw_stream():
        graph.insert_edge(u, v)
    assert graph.structure_summary()["large_denylist_entries"] > 0


def changed_fields(old: dict, new: dict) -> list[str]:
    """One ``field: old -> new`` line per counter, summary field, memory
    figure or digest of a checkpoint whose value differs."""
    lines = []
    for key in new:
        if isinstance(new[key], dict):
            lines += [f"{key}.{line}" for line in changed_fields(old.get(key, {}), new[key])]
        elif old.get(key) != new[key]:
            lines.append(f"{key}: {old.get(key)} -> {new[key]}")
    return lines


def rerecord() -> None:
    """Re-record ``golden_counts.json`` and print every value that moved."""
    previous = json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else {}
    recorded = {name: run_stream(build())[0] for name, build in sorted(VARIANTS.items())}
    for name, record in recorded.items():
        if name not in previous:
            print(f"{name}: new variant")
            continue
        for phase, got in record.items():
            lines = changed_fields(previous[name].get(phase, {}), got)
            if lines:
                print(f"{name} {phase}: " + "; ".join(lines))
    for name in sorted(set(previous) - set(recorded)):
        print(f"{name}: variant removed")
    GOLDEN_PATH.write_text(json.dumps(recorded, indent=1) + "\n")


if __name__ == "__main__":
    rerecord()
