"""CuckooGraph: the basic (distinct-edge) version of the data structure.

This module assembles the pieces defined elsewhere in :mod:`repro.core` --
the L-CHT chain, per-node Part 2 containers that transform into S-CHT chains,
and the two denylists -- into the public directed-graph API described in
Section III-A3 of the paper:

* **Insertion** first queries the edge, then places the source node ``u`` in
  the L-CHT (kicking residents if needed, parking the final homeless cell in
  the L-DL), then places the destination ``v`` in Part 2, transforming small
  slots into an S-CHT chain and parking unplaceable values in the S-DL.
* **Query** probes the L-CHT(s), falls back to the L-DL for the node, then
  probes Part 2 / the S-CHT chain, falling back to the S-DL for the value.
* **Deletion** queries then removes, triggering the reverse transformation
  when a chain's overall loading rate drops below ``Λ``.

The class implements :class:`repro.interfaces.DynamicGraphStore`, so it is a
drop-in peer of the baseline schemes in every benchmark and analytics task.
"""

from __future__ import annotations

import random
from typing import Iterable, Iterator, Optional

from ..interfaces import DynamicGraphStore
from ..memmodel.layout import CuckooLayout
from .chain import TableChain
from .config import CuckooGraphConfig, PAPER_CONFIG
from .counters import Counters
from .denylist import LargeDenylist, SmallDenylist
from .hashing import HashFamily
from .slots import AdjacencyPart2


class CuckooGraph(DynamicGraphStore):
    """Space-time efficient store for large-scale dynamic directed graphs.

    Args:
        config: Parameter set; defaults to the paper's tuned configuration
            (``d=8``, ``R=3``, ``G=0.9``, ``T=250``).

    Example:
        >>> graph = CuckooGraph()
        >>> graph.insert_edge(1, 2)
        True
        >>> graph.has_edge(1, 2)
        True
        >>> sorted(graph.successors(1))
        [2]
    """

    name = "CuckooGraph"

    def __init__(self, config: Optional[CuckooGraphConfig] = None):
        self.config = config if config is not None else PAPER_CONFIG
        self.counters = Counters()
        self._family = HashFamily(self.config.hash_family, self.config.seed)
        self._rng = random.Random(self.config.seed ^ 0x5EED)
        self._sdl = SmallDenylist(self.config.small_denylist_capacity, self.counters)
        self._ldl = LargeDenylist(self.config.large_denylist_capacity, self.counters)
        self._lcht = TableChain(
            config=self.config,
            hash_family=self._family,
            initial_length=self.config.initial_lcht_length,
            counters=self.counters,
            rng=self._rng,
            drain_source=self._ldl.drain,
        )
        self._num_edges = 0
        self._layout = CuckooLayout(R=self.config.R, weighted=self._weighted_layout())

    # ------------------------------------------------------------------ #
    # Modelled memory accesses
    # ------------------------------------------------------------------ #

    @property
    def accesses(self) -> int:
        """Modelled memory accesses: one unit per bucket probed.

        With ``d = 8`` and 8-byte slots a bucket is a cache line, so bucket
        probes are the natural cache-line-granularity unit for CuckooGraph --
        the same granularity the baselines count (one unit per list node,
        block or index level touched).
        """
        return self.counters.bucket_probes - self.counters.access_base

    def reset_accesses(self) -> None:
        """Zero the modelled memory-access counter."""
        self.counters.access_base = self.counters.bucket_probes

    # ------------------------------------------------------------------ #
    # Layout hooks overridden by the extended versions
    # ------------------------------------------------------------------ #

    def _weighted_layout(self) -> bool:
        return False

    def _slot_capacity(self) -> int:
        return self.config.small_slots_per_cell

    # ------------------------------------------------------------------ #
    # Node-level plumbing
    # ------------------------------------------------------------------ #

    def _new_part2(self, u: int) -> AdjacencyPart2:
        """Create the Part 2 container for a newly seen source node."""
        return AdjacencyPart2(
            config=self.config,
            hash_family=self._family,
            counters=self.counters,
            rng=self._rng,
            slot_capacity=self._slot_capacity(),
            drain_source=(lambda: self._sdl.drain_for_source(u)),
        )

    def _find_part2(self, u: int) -> Optional[AdjacencyPart2]:
        """Locate the Part 2 of node ``u`` in the L-CHT chain or the L-DL."""
        part2 = self._lcht.get(u)
        return part2 if part2 is not None else self._ldl._cells.get(u)

    def _park_small(self, u: int, leftovers: list[tuple[int, object]],
                    part2: AdjacencyPart2) -> None:
        """Handle S-CHT insertion failures according to the denylist policy."""
        if not leftovers:
            return
        if self.config.use_denylist:
            for v, payload in leftovers:
                self._sdl.add(u, v, payload)
            return
        # Ablation mode: expand on every failure instead of denylisting.
        pending = list(leftovers)
        while pending:
            pending_next: list[tuple[int, object]] = []
            pending_next.extend(part2.force_expand())
            for v, payload in pending:
                pending_next.extend(part2.insert(v, payload))
            if len(pending_next) >= len(pending) and pending_next == pending:
                # No progress; fall back to the denylist to preserve correctness.
                for v, payload in pending_next:
                    self._sdl.add(u, v, payload)
                return
            pending = pending_next

    def _park_large(self, leftovers: list[tuple[int, object]]) -> None:
        """Handle L-CHT insertion failures according to the denylist policy."""
        if not leftovers:
            return
        if self.config.use_denylist:
            for node, part2 in leftovers:
                self._ldl.add(node, part2)
            return
        pending = list(leftovers)
        while pending:
            pending_next: list[tuple[int, object]] = []
            pending_next.extend(self._lcht.expand())
            for node, part2 in pending:
                pending_next.extend(self._lcht.insert(node, part2))
            if pending_next == pending:
                for node, part2 in pending_next:
                    self._ldl.add(node, part2)
                return
            pending = pending_next

    def _remove_node_if_empty(self, u: int, part2: AdjacencyPart2) -> None:
        """Drop ``u`` from the structure once its last neighbour is deleted."""
        if len(part2) > 0 or self._sdl.successors_of(u):
            return
        if self._ldl.remove(u):
            return
        deleted, leftovers = self._lcht.delete(u)
        if deleted:
            self._park_large(leftovers)

    # ------------------------------------------------------------------ #
    # DynamicGraphStore API
    # ------------------------------------------------------------------ #

    # The three per-edge operations and ``successors`` run in one frame each:
    # they probe the L-CHT chain, the small slots or the S-CHT chain, and the
    # denylists (only when non-empty) through the chains' sides, and charge
    # ``bucket_probes`` and ``cell_probes`` once on the way out with the
    # totals the component calls would charge.  Whatever transforms, kicks or
    # parks goes through the component methods, as the extended versions do
    # throughout.

    def insert_edge(self, u: int, v: int) -> bool:
        """Insert the directed edge ``⟨u, v⟩``; return ``True`` if it was new.

        Following the paper's Insertion Step 1, the edge is first queried.  A
        miss leaves the newest table's two candidate buckets in hand and the
        placement takes them as they are instead of hashing again; it is still
        charged its attempt and two bucket probes (and a new node the overwrite
        scan of the older L-CHTs), as when it probed again.
        """
        counters = self.counters
        counters.edges_inserted += 1
        sdl = self._sdl._entries
        probes = cells = 0
        try:
            bucket1 = None
            for array, hash_of, count in self._lcht._sides:
                bucket0, bucket1 = bucket1, array[hash_of(u) % count]
                probes += 1
                cells += len(bucket1)
                if u in bucket1:
                    part2 = bucket1[u]
                    break
            else:
                part2 = self._ldl._cells.get(u)

            if part2 is None:
                if sdl and (u, v) in sdl:
                    counters.denylist_hits += 1
                    return False
                part2 = self._new_part2(u)
                part2._slots[v] = None
                probes += probes - 2
                cells += cells - len(bucket0) - len(bucket1)
                self._park_large(self._lcht.insert(u, part2, True, (bucket0, bucket1)))
            elif part2._chain is None:
                slots = part2._slots
                cells += len(slots)
                if v in slots:
                    return False
                if sdl and (u, v) in sdl:
                    counters.denylist_hits += 1
                    return False
                if len(slots) < part2.slot_capacity:
                    slots[v] = None
                else:
                    self._park_small(u, part2._transform_to_chain((v, None)), part2)
            else:
                chain = part2._chain
                bucket1 = None
                for array, hash_of, count in chain._sides:
                    bucket0, bucket1 = bucket1, array[hash_of(v) % count]
                    probes += 1
                    cells += len(bucket1)
                    if v in bucket1:
                        return False
                if sdl and (u, v) in sdl:
                    counters.denylist_hits += 1
                    return False
                newest = chain.tables[-1]
                room = bucket0 if len(bucket0) < newest.d else bucket1
                if newest._size <= chain._grow_above and len(room) < newest.d:
                    # No expansion due and a free cell in hand: place it here.
                    room[v] = None
                    newest._size += 1
                    chain._size += 1
                    counters.insert_attempts += 1
                    probes += 2
                else:
                    self._park_small(u, chain.insert(v, None, True, (bucket0, bucket1)), part2)
            self._num_edges += 1
            return True
        finally:
            counters.bucket_probes += probes
            counters.cell_probes += cells

    def has_edge(self, u: int, v: int) -> bool:
        """Whether the directed edge ``⟨u, v⟩`` is stored (Query operation)."""
        counters = self.counters
        counters.edges_queried += 1
        probes = cells = 0
        try:
            for array, hash_of, count in self._lcht._sides:
                bucket = array[hash_of(u) % count]
                probes += 1
                cells += len(bucket)
                if u in bucket:
                    part2 = bucket[u]
                    break
            else:
                part2 = self._ldl._cells.get(u)

            if part2 is not None and part2._chain is None:
                cells += len(part2._slots)
                if v in part2._slots:
                    return True
            elif part2 is not None:
                for array, hash_of, count in part2._chain._sides:
                    bucket = array[hash_of(v) % count]
                    probes += 1
                    cells += len(bucket)
                    if v in bucket:
                        return True
            sdl = self._sdl._entries
            if sdl and (u, v) in sdl:
                counters.denylist_hits += 1
                return True
            return False
        finally:
            counters.bucket_probes += probes
            counters.cell_probes += cells

    def delete_edge(self, u: int, v: int) -> bool:
        """Delete ``⟨u, v⟩``; return ``True`` if it was present."""
        counters = self.counters
        counters.edges_deleted += 1
        probes = cells = 0
        try:
            for array, hash_of, count in self._lcht._sides:
                bucket = array[hash_of(u) % count]
                probes += 1
                cells += len(bucket)
                if u in bucket:
                    part2 = bucket[u]
                    break
            else:
                part2 = self._ldl._cells.get(u)

            if part2 is not None and part2._chain is None:
                slots = part2._slots
                cells += len(slots)
                if v in slots:
                    del slots[v]
                    self._num_edges -= 1
                    if not slots:
                        self._remove_node_if_empty(u, part2)
                    return True
            elif part2 is not None:
                chain = part2._chain
                walked = 0
                for array, hash_of, count in chain._sides:
                    bucket = array[hash_of(v) % count]
                    walked += 1
                    cells += len(bucket)
                    if v in bucket:
                        break
                else:
                    bucket = None
                probes += walked
                if bucket is not None:
                    # ``TableChain.delete`` walks to the same bucket again.
                    probes += walked
                    del bucket[v]
                    holder = (walked - 1) // 2
                    chain.tables[holder]._size -= 1
                    size = chain._size = chain._size - 1
                    leftovers = (chain._reverse_transform(holder)
                                 if 0 < size < chain._shrink_below else None)
                    if self.config.collapse_chain_to_slots:
                        part2._maybe_collapse()
                    if leftovers:
                        self._park_small(u, leftovers, part2)
                    self._num_edges -= 1
                    if not size:
                        self._remove_node_if_empty(u, part2)
                    return True
            sdl = self._sdl._entries
            if sdl and (u, v) in sdl:
                counters.denylist_hits += 1
                self._sdl.remove(u, v)
                self._num_edges -= 1
                if part2 is not None:
                    self._remove_node_if_empty(u, part2)
                return True
            return False
        finally:
            counters.bucket_probes += probes
            counters.cell_probes += cells

    def successors(self, u: int) -> list[int]:
        """Out-neighbours of ``u`` (successor query used by the analytics
        tasks): its small slots or S-CHT chain, then its S-DL entries.  The
        L-CHT walk is charged as ``TableChain.get`` charges it."""
        counters = self.counters
        probes = cells = 0
        for array, hash_of, count in self._lcht._sides:
            bucket = array[hash_of(u) % count]
            probes += 1
            cells += len(bucket)
            if u in bucket:
                part2 = bucket[u]
                break
        else:
            part2 = self._ldl._cells.get(u)
        counters.bucket_probes += probes
        counters.cell_probes += cells
        if part2 is None:
            found = []
        elif part2._chain is None:
            found = list(part2._slots)
        else:
            found = part2._chain.keys()
        parked = self._sdl._by_source
        if parked:
            found.extend(parked.get(u, ()))
        return found

    # The batch calls run in one frame each, and charge every count exactly
    # what the per-edge calls on the same items would.  ``insert_edges`` runs
    # one source at a time: the first edge of a run of equal sources goes
    # through ``insert_edge`` (new nodes, L-DL cells and S-DL hits stay
    # there), and the rest reuse the Part 2 it left and the L-CHT walk that
    # finds it -- only inserting or removing a node changes the L-CHT, and
    # placing destinations does neither.  ``delete_edges`` keeps the
    # per-edge loop.

    def insert_edges(self, edges: Iterable[tuple[int, int]]) -> int:
        """Insert a batch of edges; return the number that were new.

        Each edge is charged what :meth:`insert_edge` would charge for it, in
        input order.  A subclass that overrides ``insert_edge`` must bind
        ``insert_edges = DynamicGraphStore.insert_edges``, as the weighted and
        multi-edge versions do.
        """
        insert = self.insert_edge
        park = self._park_small
        counters = self.counters
        lcht = self._lcht
        ldl = self._ldl._cells
        sdl = self._sdl._entries
        inserted = reused = added = probes = cells = hits = attempts = 0
        previous = run = None
        try:
            for u, v in edges:
                if u != run:
                    run = None
                    if u == previous:
                        # Second edge of a run: walk the L-CHT as
                        # ``insert_edge`` would, and keep what the walk found
                        # for the rest of the run.
                        walk_probes = walk_cells = 0
                        for array, hash_of, count in lcht._sides:
                            bucket = array[hash_of(u) % count]
                            walk_probes += 1
                            walk_cells += len(bucket)
                            if u in bucket:
                                part2 = bucket[u]
                                break
                        else:
                            part2 = ldl.get(u)
                        if part2 is not None:  # else the first edge was refused
                            run = u
                    previous = u
                    if run is None:
                        inserted += insert(u, v)
                        continue

                reused += 1
                probes += walk_probes
                cells += walk_cells
                chain = part2._chain
                if chain is None:
                    slots = part2._slots
                    cells += len(slots)
                    if v in slots:
                        continue
                    if sdl and (u, v) in sdl:
                        hits += 1
                        continue
                    if len(slots) < part2.slot_capacity:
                        slots[v] = None
                    else:
                        park(u, part2._transform_to_chain((v, None)), part2)
                else:
                    bucket1 = None
                    for array, hash_of, count in chain._sides:
                        bucket0, bucket1 = bucket1, array[hash_of(v) % count]
                        probes += 1
                        cells += len(bucket1)
                        if v in bucket1:
                            break
                    if v in bucket1:
                        continue
                    if sdl and (u, v) in sdl:
                        hits += 1
                        continue
                    newest = chain.tables[-1]
                    room = bucket0 if len(bucket0) < newest.d else bucket1
                    if newest._size <= chain._grow_above and len(room) < newest.d:
                        room[v] = None
                        newest._size += 1
                        chain._size += 1
                        attempts += 1
                        probes += 2
                    else:
                        park(u, chain.insert(v, None, True, (bucket0, bucket1)), part2)
                added += 1
            return inserted + added
        finally:
            self._num_edges += added
            counters.edges_inserted += reused
            counters.denylist_hits += hits
            counters.insert_attempts += attempts
            counters.bucket_probes += probes
            counters.cell_probes += cells

    def has_edges(self, edges: Iterable[tuple[int, int]]) -> list[bool]:
        """Membership of a batch of edges, in input order (:meth:`has_edge`
        for each, in one frame)."""
        counters = self.counters
        sides = self._lcht._sides
        ldl = self._ldl._cells
        sdl = self._sdl._entries
        answers: list[bool] = []
        answer = answers.append
        probes = cells = hits = 0
        try:
            for u, v in edges:
                for array, hash_of, count in sides:
                    bucket = array[hash_of(u) % count]
                    probes += 1
                    cells += len(bucket)
                    if u in bucket:
                        part2 = bucket[u]
                        break
                else:
                    part2 = ldl.get(u)

                if part2 is not None:
                    chain = part2._chain
                    if chain is None:
                        cells += len(part2._slots)
                        if v in part2._slots:
                            answer(True)
                            continue
                    else:
                        for array, hash_of, count in chain._sides:
                            bucket = array[hash_of(v) % count]
                            probes += 1
                            cells += len(bucket)
                            if v in bucket:
                                break
                        if v in bucket:
                            answer(True)
                            continue
                if sdl and (u, v) in sdl:
                    hits += 1
                    answer(True)
                else:
                    answer(False)
            return answers
        finally:
            counters.edges_queried += len(answers)
            counters.denylist_hits += hits
            counters.bucket_probes += probes
            counters.cell_probes += cells

    def successors_many(self, nodes: Iterable[int]) -> dict[int, list[int]]:
        """Successor lists of the distinct ``nodes``, keyed in first-occurrence
        order (:meth:`successors` for each, in one frame)."""
        counters = self.counters
        sides = self._lcht._sides
        ldl = self._ldl._cells
        parked = self._sdl._by_source
        lists: dict[int, list[int]] = {}
        probes = cells = 0
        try:
            for u in dict.fromkeys(nodes):
                for array, hash_of, count in sides:
                    bucket = array[hash_of(u) % count]
                    probes += 1
                    cells += len(bucket)
                    if u in bucket:
                        part2 = bucket[u]
                        break
                else:
                    part2 = ldl.get(u)
                if part2 is None:
                    found = []
                elif part2._chain is None:
                    found = list(part2._slots)
                else:
                    found = part2._chain.keys()
                if parked:
                    found.extend(parked.get(u, ()))
                lists[u] = found
            return lists
        finally:
            counters.bucket_probes += probes
            counters.cell_probes += cells

    def out_degree(self, u: int) -> int:
        """Out-degree of ``u`` without materialising the successor list twice."""
        part2 = self._find_part2(u)
        degree = len(part2) if part2 is not None else 0
        return degree + len(self._sdl._by_source.get(u, ()))

    def has_node(self, u: int) -> bool:
        """Whether ``u`` is currently stored as a source node."""
        return self._find_part2(u) is not None

    def source_nodes(self) -> Iterator[int]:
        """Iterate over source nodes (L-CHT residents first, then the L-DL)."""
        return iter(self._lcht.keys() + list(self._ldl._cells))

    def edges(self) -> Iterator[tuple[int, int]]:
        """Iterate over every stored directed edge."""
        for u, part2 in self._cells():
            for v in part2.neighbours():
                yield (u, v)
        yield from self._sdl._entries

    def nodes(self) -> Iterator[int]:
        """Every node incident to a stored edge, in the default's order (first
        occurrence in :meth:`edges`), from one pass over the cells."""
        seen: dict[int, None] = {}
        for u, part2 in self._cells():
            neighbours = part2.neighbours()
            if neighbours:
                seen[u] = None
                seen.update(dict.fromkeys(neighbours))
        for u, v in self._sdl._entries:
            seen[u] = None
            seen[v] = None
        return iter(seen)

    @property
    def num_edges(self) -> int:
        """Number of distinct directed edges currently stored."""
        return self._num_edges

    @property
    def num_source_nodes(self) -> int:
        """Number of distinct source nodes currently stored."""
        return len(self._lcht) + len(self._ldl)

    # ------------------------------------------------------------------ #
    # Memory model
    # ------------------------------------------------------------------ #

    def memory_bytes(self) -> int:
        """Modelled C++ footprint: L-CHT cells, S-CHT cells and both denylists."""
        layout = self._layout
        total = self._lcht.modelled_bytes(layout.lcht_cell_bytes)
        for _, part2 in self._cells():
            total += part2.chain_modelled_bytes(layout.scht_cell_bytes)
        total += self._sdl.modelled_bytes(layout.sdl_entry_bytes)
        total += self._ldl.modelled_bytes(layout.ldl_entry_bytes)
        return total

    # ------------------------------------------------------------------ #
    # Introspection helpers used by tests and benchmarks
    # ------------------------------------------------------------------ #

    @property
    def lcht(self) -> TableChain:
        """The L-CHT chain (exposed for tests and the cost-model experiments)."""
        return self._lcht

    @property
    def small_denylist(self) -> SmallDenylist:
        """The global S-DL."""
        return self._sdl

    @property
    def large_denylist(self) -> LargeDenylist:
        """The global L-DL."""
        return self._ldl

    def part2_of(self, u: int) -> Optional[AdjacencyPart2]:
        """Part 2 container of ``u`` (``None`` if ``u`` is not a source node)."""
        return self._find_part2(u)

    def structure_summary(self) -> dict[str, object]:
        """A snapshot of the structural state, handy for debugging and reports."""
        transformed = sum(1 for _, part2 in self._cells() if part2.is_transformed)
        return {
            "num_edges": self._num_edges,
            "num_source_nodes": self.num_source_nodes,
            "lcht_tables": self._lcht.table_lengths,
            "lcht_loading_rate": self._lcht.overall_loading_rate,
            "nodes_with_scht_chain": transformed,
            "small_denylist_entries": len(self._sdl),
            "large_denylist_entries": len(self._ldl),
            "memory_bytes": self.memory_bytes(),
        }

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #

    def _cells(self) -> list[tuple[int, AdjacencyPart2]]:
        """Every (u, Part 2) cell: the L-CHT chain's, then the L-DL's."""
        return self._lcht.items() + list(self._ldl._cells.items())
