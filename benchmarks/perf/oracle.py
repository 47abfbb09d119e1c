"""The dict-of-sets reference model and the failure ledger.

Every value a workload gets back from the program -- insert/delete results,
``has`` answers, successor lists, a recovered edge set, BFS visit counts --
is compared with what this plain model says it must be.  The model is built
by the runner from the generated inputs only; it shares no code with
``repro``.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Set, Tuple

Edge = Tuple[int, int]


class Oracle:
    """A directed graph as ``{source: {destinations}}``."""

    def __init__(self, edges: Iterable[Edge] = ()):
        self.adj: Dict[int, Set[int]] = {}
        self.num_edges = 0
        for u, v in edges:
            self.insert(u, v)

    def copy(self) -> "Oracle":
        clone = Oracle()
        clone.adj = {u: set(targets) for u, targets in self.adj.items()}
        clone.num_edges = self.num_edges
        return clone

    def insert(self, u: int, v: int) -> bool:
        targets = self.adj.setdefault(u, set())
        if v in targets:
            return False
        targets.add(v)
        self.num_edges += 1
        return True

    def delete(self, u: int, v: int) -> bool:
        targets = self.adj.get(u)
        if targets is None or v not in targets:
            return False
        targets.remove(v)
        if not targets:
            del self.adj[u]
        self.num_edges -= 1
        return True

    def has(self, u: int, v: int) -> bool:
        return v in self.adj.get(u, ())

    def successors(self, u: int) -> List[int]:
        """Sorted successor list (the program's order is unspecified)."""
        return sorted(self.adj.get(u, ()))

    def edges(self) -> Set[Edge]:
        return {(u, v) for u, targets in self.adj.items() for v in targets}

    def nodes(self) -> Set[int]:
        found = set(self.adj)
        for targets in self.adj.values():
            found.update(targets)
        return found

    def bfs_count(self, root: int) -> int:
        """Number of nodes reachable from ``root`` (``root`` included)."""
        seen = {root}
        frontier = [root]
        while frontier:
            following = []
            for node in frontier:
                for target in self.adj.get(node, ()):
                    if target not in seen:
                        seen.add(target)
                        following.append(target)
            frontier = following
        return len(seen)

    def top_sources(self, count: int) -> List[int]:
        """The ``count`` sources with the most out-edges (ties by id)."""
        ranked = sorted(self.adj, key=lambda u: (-len(self.adj[u]), u))
        return ranked[:count]


class Ledger:
    """Operations attempted against operations that failed or mismatched.

    A rejected, failed or cancelled request and a value that differs from
    the oracle all count the same: one failed operation out of the
    operations attempted.
    """

    MAX_NOTES = 8

    def __init__(self, corrupt_first: bool = False) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: List[str] = []
        #: Self-check of the harness: negate the first expected value compared.
        self.corrupt_first = corrupt_first

    def _fail(self, count: int, note: str) -> None:
        self.failed += count
        if len(self.notes) < self.MAX_NOTES:
            self.notes.append(note)

    def failure(self, what: str, ops: int = 1) -> None:
        """``ops`` attempted operations that raised, were rejected or cancelled."""
        self.attempted += ops
        self._fail(ops, what)

    def count(self, what: str, got: int, want: int, ops: int) -> None:
        """A batch call's returned count against the oracle's."""
        self.attempted += ops
        if got != want:
            self._fail(min(ops, abs(got - want)), f"{what}: got {got}, oracle {want}")

    def values(self, what: str, got: Sequence, want: Sequence) -> None:
        """Per-operation results, position by position."""
        if self.corrupt_first and want:
            self.corrupt_first = False
            want = [not want[0], *want[1:]]
        self.attempted += len(want)
        wrong = sum(1 for a, b in zip(got, want) if a != b) + abs(len(got) - len(want))
        if wrong:
            self._fail(wrong, f"{what}: {wrong} of {len(want)} results differ from the oracle")

    def successor_lists(self, what: str, got: Dict[int, Sequence[int]],
                        oracle: Oracle, nodes: Iterable[int]) -> None:
        """Successor lists as sets with no duplicates, one operation per node."""
        wrong = total = 0
        for u in nodes:
            total += 1
            if sorted(got.get(u, ())) != oracle.successors(u):
                wrong += 1
        self.attempted += total
        if wrong:
            self._fail(wrong, f"{what}: {wrong} of {total} successor lists differ")

    def edge_set(self, what: str, got: Iterable[Edge], oracle: Oracle) -> None:
        """A whole edge dump (recovery, final state), one operation per edge."""
        got = list(got)
        want = oracle.edges()
        self.attempted += max(len(want), 1)
        wrong = len(set(got) ^ want) + (len(got) - len(set(got)))
        if wrong:
            self._fail(wrong, f"{what}: edge set differs from the oracle in {wrong} edges")

    @property
    def ok_rate(self) -> float:
        return 1.0 - self.failed / self.attempted if self.attempted else 0.0
