"""Synthetic edge-stream generators.

The paper evaluates on five real traces (CAIDA, NotreDame, StackOverflow,
WikiTalk, Weibo) and two synthetic graphs (DenseGraph, SparseGraph).  The
real traces are not redistributable, so this module provides generators that
reproduce the *characteristics* Table IV reports for each of them: node and
edge counts (scaled), power-law degree skew with a heavy-tailed maximum
degree, duplicate-edge ratios for the weighted traces, a ~0.9-density dense
graph and a constant-degree sparse graph.  The generators are deterministic
given a seed.
"""

from __future__ import annotations

import random


def _zipf_weights(count: int, exponent: float) -> list[float]:
    """Unnormalised Zipf weights ``1 / rank**exponent`` for ``count`` ranks."""
    return [1.0 / ((rank + 1) ** exponent) for rank in range(count)]


class _ZipfSampler:
    """Inverse-CDF sampler over Zipf weights (index 0 is the heaviest rank)."""

    def __init__(self, count: int, exponent: float):
        self._cumulative: list[float] = []
        total = 0.0
        for weight in _zipf_weights(count, exponent):
            total += weight
            self._cumulative.append(total)
        self._total = total

    def sample(self, rng: random.Random) -> int:
        """Draw a rank index proportionally to its Zipf weight."""
        needle = rng.random() * self._total
        low, high = 0, len(self._cumulative) - 1
        while low < high:
            mid = (low + high) // 2
            if self._cumulative[mid] < needle:
                low = mid + 1
            else:
                high = mid
        return low


def powerlaw_edge_set(
    num_nodes: int,
    num_edges: int,
    rng: random.Random,
    out_exponent: float = 1.0,
    in_exponent: float = 1.0,
) -> list[tuple[int, int]]:
    """Distinct directed edges whose in/out degrees follow power laws.

    Source nodes are drawn from a Zipf distribution with ``out_exponent``
    (a few heavy hitters get most outgoing edges); destinations are drawn
    from an independent Zipf distribution with ``in_exponent``.  Node ranks
    are shuffled so that the heavy hitters are not simply the smallest ids.
    Exact duplicates are rejected, so the result has exactly ``num_edges``
    distinct edges (or slightly fewer if the requested count exceeds what the
    node budget allows).
    """
    if num_nodes < 2:
        raise ValueError("num_nodes must be >= 2")
    node_ids = list(range(num_nodes))
    rng.shuffle(node_ids)
    out_sampler = _ZipfSampler(num_nodes, out_exponent)
    in_sampler = _ZipfSampler(num_nodes, in_exponent)

    max_possible = num_nodes * (num_nodes - 1)
    target = min(num_edges, max_possible)
    edges: set[tuple[int, int]] = set()
    attempts = 0
    max_attempts = target * 50
    while len(edges) < target and attempts < max_attempts:
        attempts += 1
        source = node_ids[out_sampler.sample(rng)]
        destination = node_ids[in_sampler.sample(rng)]
        if source == destination:
            continue
        edges.add((source, destination))
    if len(edges) < target:
        # Fill the remainder uniformly so the requested size is honoured.
        while len(edges) < target:
            source = rng.choice(node_ids)
            destination = rng.choice(node_ids)
            if source != destination:
                edges.add((source, destination))
    ordered = list(edges)
    rng.shuffle(ordered)
    return ordered


def duplicate_stream(
    distinct_edges: list[tuple[int, int]],
    total_edges: int,
    rng: random.Random,
    skew: float = 1.0,
) -> list[tuple[int, int]]:
    """A stream of ``total_edges`` arrivals over ``distinct_edges``.

    Every distinct edge appears at least once; the remaining arrivals repeat
    edges following a Zipf distribution with the given ``skew``, reproducing
    the heavy duplication of flow-level traces such as CAIDA.
    """
    if total_edges < len(distinct_edges):
        raise ValueError("total_edges must be at least the number of distinct edges")
    stream = list(distinct_edges)
    repeats_needed = total_edges - len(distinct_edges)
    if repeats_needed:
        sampler = _ZipfSampler(len(distinct_edges), skew)
        for _ in range(repeats_needed):
            stream.append(distinct_edges[sampler.sample(rng)])
    rng.shuffle(stream)
    return stream


def dense_edge_set(
    num_nodes: int, density: float, rng: random.Random
) -> list[tuple[int, int]]:
    """Distinct edges of an Erdős–Rényi-style dense graph with the given density."""
    if not 0.0 < density <= 1.0:
        raise ValueError("density must be in (0, 1]")
    edges: list[tuple[int, int]] = []
    for source in range(num_nodes):
        for destination in range(num_nodes):
            if source == destination:
                continue
            if rng.random() < density:
                edges.append((source, destination))
    rng.shuffle(edges)
    return edges


def regular_edge_set(
    num_nodes: int, out_degree: int, rng: random.Random
) -> list[tuple[int, int]]:
    """Distinct edges of a graph where every node has exactly ``out_degree`` successors."""
    if out_degree >= num_nodes:
        raise ValueError("out_degree must be smaller than num_nodes")
    edges: list[tuple[int, int]] = []
    for source in range(num_nodes):
        destinations = rng.sample(
            [node for node in range(num_nodes) if node != source], out_degree
        )
        edges.extend((source, destination) for destination in destinations)
    rng.shuffle(edges)
    return edges
