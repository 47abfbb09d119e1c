"""Spans recorded from outside the program, around the calls into each layer.

Nothing under ``src/`` knows about tracing.  The benchmark builds the same
deployment it measures untraced and, at the constructor seams the program
already offers (``ShardedCuckooGraph(shard_factory=...)``,
``PersistentStore(store=...)``, ``GraphService(store=...)``,
``TieredStore(cold=<factory>)``), hands over objects whose public methods
were wrapped *on the instance* by :meth:`Tracer.spans_on` (one span per
call) or :meth:`Tracer.leaves_on` (per-edge calls, far too many for one span
each: their time and call count are summed into one aggregated child span of
the enclosing store call).  The wrapped objects are still instances of their
own classes, so ``isinstance`` checks in the program keep passing.

A span is ``[id, name, start, end, parent, batch, ops, summed]``.  ``parent`` is the
span that was open in the same thread, else the *ambient* span -- the phase
the runner is in -- so the dispatcher thread's store calls hang under the
phase that caused them.  ``batch`` is the id of the outermost span of the
call tree and is what the spans of one store call share.  ``ops`` is the
number of edges/nodes the call carried.  ``summed`` is 1 for an aggregated
child: its length is the total time of ``ops`` per-edge calls made inside
the parent, and its position in the parent is not meaningful.

A span's *self time* is its duration minus the part of it that its child
spans cover (the union of the real children, clipped to the span, plus the
summed ones), which is what :func:`self_times` computes after the run.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence

FIELDS = ("id", "name", "start", "end", "parent", "batch", "ops", "summed")
_ID, _NAME, _START, _END, _PARENT, _BATCH, _OPS, _SUMMED = range(8)

clock = time.perf_counter


def _ops_of(args: tuple) -> int:
    """Operations a store call carries: the length of a batch argument."""
    if args and hasattr(args[0], "__len__"):
        return len(args[0])
    return 1


class Tracer:
    """In-memory span recorder; written out once, when the run ends."""

    def __init__(self) -> None:
        self.records: List[list] = []
        self.ambient: Optional[int] = None
        #: False inside :meth:`suspended`: wrappers pass straight through.
        self.active = True
        self._attached: List[tuple] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> List[list]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, ops: int = 1) -> list:
        stack = self._stack()
        ident = next(self._ids)
        if stack:
            parent, batch = stack[-1][_ID], stack[-1][_BATCH]
        else:
            parent, batch = self.ambient, ident
        # Last slot: {name: [calls, seconds]} of per-edge calls, until end().
        record = [ident, name, 0.0, 0.0, parent, batch, ops, None]
        stack.append(record)
        record[_START] = clock()
        return record

    def end(self, record: list) -> None:
        record[_END] = clock()
        self._stack().pop()
        leaves = record[_SUMMED]
        record[_SUMMED] = 0
        self.records.append(record)
        if leaves:
            start = record[_START]
            for name, (calls, seconds) in leaves.items():
                self.records.append([next(self._ids), name, start, start + seconds,
                                     record[_ID], record[_BATCH], calls, 1])

    @contextmanager
    def span(self, name: str, ops: int = 1, ambient: bool = False) -> Iterator[list]:
        """One span; ``ambient`` makes it the parent of other threads'
        outermost spans while it is open (the runner's phases and kernels)."""
        record = self.begin(name, ops)
        outer = self.ambient
        if ambient:
            self.ambient = record[_ID]
        try:
            yield record
        finally:
            self.ambient = outer
            self.end(record)

    def leaf(self, name: str, seconds: float) -> None:
        """Add one timed call to the enclosing span's aggregated children."""
        stack = self._stack()
        if not stack:
            return  # outside every span: not part of a measured call
        record = stack[-1]
        leaves = record[_SUMMED]
        if leaves is None:
            leaves = record[_SUMMED] = {}
        entry = leaves.get(name)
        if entry is None:
            leaves[name] = [1, seconds]
        else:
            entry[0] += 1
            entry[1] += seconds

    # -- interposing on live objects ------------------------------------- #

    def _attach(self, target, method: str, wrapper) -> None:
        setattr(target, method, wrapper)
        self._attached.append((target, method, wrapper))

    def forget_targets(self) -> None:
        """Drop the references to wrapped objects (a round's deployment is
        gone; its stores must not stay alive until the run ends)."""
        self._attached.clear()

    @contextmanager
    def suspended(self) -> Iterator[None]:
        """Run untraced: the instance wrappers are taken off, then put back.

        A reference the program captured earlier (``GraphService`` keeps
        ``store.sync``) still reaches its wrapper, which sees ``active`` is
        false and only forwards.
        """
        self.active = False
        for target, method, _ in self._attached:
            delattr(target, method)
        try:
            yield
        finally:
            for target, method, wrapper in self._attached:
                setattr(target, method, wrapper)
            self.active = True

    def spans_on(self, target, layer: str, methods: Iterable[str]):
        """Wrap ``target``'s ``methods`` so each call is one ``layer.method`` span."""
        for method in methods:
            self._attach(target, method,
                         self._spanned(getattr(target, method), f"{layer}.{method}"))
        return target

    def _spanned(self, inner, name: str):
        def traced(*args, **kwargs):
            if not self.active:
                return inner(*args, **kwargs)
            record = self.begin(name, _ops_of(args))
            try:
                return inner(*args, **kwargs)
            finally:
                self.end(record)
        return traced

    def leaves_on(self, target, layer: str, methods: Iterable[str]):
        """Wrap per-edge ``methods``: time and count them, one child per span."""
        for method in methods:
            self._attach(target, method,
                         self._leafed(getattr(target, method), f"{layer}.{method}"))
        return target

    def _leafed(self, inner, name: str):
        leaf = self.leaf

        def traced(*args):
            started = clock()
            result = inner(*args)
            leaf(name, clock() - started)
            return result
        return traced

    # -- output ------------------------------------------------------------ #

    def write(self, path: Path, header: Dict[str, object]) -> None:
        """One JSON document: ``header`` keys, ``fields`` and the span rows."""
        origin = min((r[_START] for r in self.records), default=0.0)
        rows = [[r[_ID], r[_NAME], round(r[_START] - origin, 7),
                 round(r[_END] - origin, 7), r[_PARENT], r[_BATCH], r[_OPS], r[_SUMMED]]
                for r in sorted(self.records, key=lambda r: r[_ID])]
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as file:
            json.dump({**header, "fields": list(FIELDS), "spans": rows}, file,
                      separators=(",", ":"))


def maybe_span(tracer: Optional[Tracer], name: str, ops: int = 1, ambient: bool = False):
    """``tracer.span(...)`` when there is a tracer and it is not suspended."""
    if tracer is None or not tracer.active:
        return nullcontext()
    return tracer.span(name, ops, ambient)


def covered(intervals: Sequence[tuple], low: float, high: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[low, high]``."""
    total = 0.0
    reach = low
    for start, end in sorted(intervals):
        start = max(start, reach)
        end = min(end, high)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(records: Sequence[Sequence]) -> Dict[int, float]:
    """Self time of every span, by span id (never below zero)."""
    children: Dict[int, List[tuple]] = defaultdict(list)
    summed: Dict[int, float] = defaultdict(float)
    for record in records:
        if record[_PARENT] is None:
            continue
        if record[_SUMMED]:
            summed[record[_PARENT]] += record[_END] - record[_START]
        else:
            children[record[_PARENT]].append((record[_START], record[_END]))
    return {
        record[_ID]: max(0.0, (record[_END] - record[_START]) - summed[record[_ID]]
                         - covered(children.get(record[_ID], ()), record[_START], record[_END]))
        for record in records
    }


class NameTotals:
    """Per-span-name sums over one trace: self time, ops, calls, longest call."""

    def __init__(self, records: Sequence[Sequence]):
        own = self_times(records)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.total_s: Dict[str, float] = defaultdict(float)
        self.ops: Dict[str, int] = defaultdict(int)
        self.calls: Dict[str, int] = defaultdict(int)
        self.longest_s: Dict[str, float] = defaultdict(float)
        for record in records:
            name = record[_NAME]
            duration = record[_END] - record[_START]
            self.self_s[name] += own[record[_ID]]
            self.total_s[name] += duration
            self.ops[name] += record[_OPS]
            self.calls[name] += 1
            self.longest_s[name] = max(self.longest_s[name], duration)

    def names(self, *prefixes: str) -> List[str]:
        return [name for name in self.self_s if name.startswith(prefixes)]

    def self_seconds(self, *names: str) -> float:
        return sum(self.self_s.get(name, 0.0) for name in names)

    def operations(self, *names: str) -> int:
        return sum(self.ops.get(name, 0) for name in names)

    def self_us_per_op(self, *names: str) -> float:
        """Self time of the named spans per operation they carried, in µs."""
        ops = self.operations(*names)
        return 1e6 * self.self_seconds(*names) / ops if ops else 0.0

    def layer_self_s(self, layer: str) -> float:
        return sum(self.self_s[name] for name in self.names(layer + "."))
