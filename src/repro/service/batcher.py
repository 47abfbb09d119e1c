"""Micro-batching: turn a FIFO request stream into store-sized batch calls.

A :class:`Request` carries the items of one client call: a *list* request
holds up to ``max_batch`` edges (or nodes) and resolves to the store's own
batch return value; a *single* request is the one-item case, flagged so its
future resolves to a bare ``bool`` / ``list``.  Two pieces turn the queue
into store calls:

* :func:`gather_window` pulls one *window* of requests off the queue --
  blocking until a first request arrives (or the queue closes, or its
  ``wake`` is called: both hand back an empty window), taking up
  to ``max_batch`` requests under that one lock acquisition, then waiting at
  most ``max_delay_s`` for stragglers.  ``max_delay_s=0`` is the
  latency-first mode: the window is whatever was queued at that moment, so
  a lone synchronous client never pays an artificial delay, while
  concurrent clients still coalesce naturally (requests that arrive while a
  batch is executing pile up for the next window).
* :func:`split_runs` cuts a window into runs.  A list request and an
  analytics request are *barriers*: each is a run of its own, at its place
  in the window.  The single requests between two barriers are placed in
  *conflict layers* by source (``payload[0]`` of an insert, delete or has;
  the ``payload`` of a successors request): a request goes to the lowest
  layer that is at or above every earlier request of its kind on its
  source, and above every earlier request of another kind on its source
  when either of the two writes (``has`` and ``successors`` never
  conflict).  Runs come out layer by layer, one per kind per layer, kinds
  in first-seen order, each run's requests in submission order.  Requests
  on different sources commute, so a deterministic schedule of the window
  in this order -- as Calvin (Thomson et al., SIGMOD 2012) orders a batch
  by its read and write sets -- gives every request the result a
  sequential replay in submission order would; the one thing that may
  differ is the order of a successor list, which is the store's own.
  Each run becomes one store batch call (``insert_edges`` /
  ``delete_edges`` / ``has_edges`` / ``successors_many``; a run of several
  single mutations adds a ``has_edges`` pre-probe, see
  :mod:`repro.service.service`).  No run holds more than ``max_batch``
  items, so no store call does either.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from concurrent.futures import Future
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from .queue import BoundedRequestQueue

#: Request kinds understood by the dispatcher, in no particular order.
KINDS = ("insert", "delete", "has", "successors", "analytics")

#: The single clock every service timestamp comes from.  ``enqueued_at``
#: stamps, window deadlines, latency samples and the queue's put/get
#: timeouts must all read the same monotonic clock: mixing
#: ``time.perf_counter`` (whose epoch is unrelated) into any one of them
#: silently skews deadlines and latency percentiles.
#: ``tests/service/test_clock_domains.py`` pins this choice.
CLOCK = time.monotonic


@dataclass
class Request:
    """One client call in flight through the service.

    ``payload`` is one item (an edge, a node, an analytics job) when
    ``single`` is set, and the list of the call's items otherwise.
    """

    kind: str
    payload: object
    single: bool = True
    future: Future = field(default_factory=Future)
    enqueued_at: float = field(default_factory=CLOCK)


def gather_window(
    queue: BoundedRequestQueue, max_batch: int, max_delay_s: float,
    woken: Optional[Callable[[], None]] = None,
) -> List[Request]:
    """Collect the next dispatch window.

    Blocks -- untimed; ``BoundedRequestQueue.close`` and ``wake`` end the
    wait, with an empty window -- until a request is queued, and takes up to
    ``max_batch`` requests in that one acquisition.  With ``max_delay_s > 0``
    the window then keeps filling until ``max_batch`` requests are in hand or
    the deadline (counted from the first request's enqueue time) passes; a
    ``wake`` during that wait calls ``woken`` and the filling goes on (with no
    ``woken`` it ends there).
    """
    window = queue.get_many(max_batch)
    if not window or max_delay_s <= 0:
        return window
    deadline = window[0].enqueued_at + max_delay_s
    while len(window) < max_batch:
        remaining = deadline - CLOCK()
        if remaining <= 0:
            break
        more = queue.get_many(max_batch - len(window), timeout=remaining)
        if more:
            window.extend(more)
        elif woken is None or queue.closed:
            break
        else:
            woken()  # or the deadline was hit: the next pass sees that
    return window


#: For each single-request kind, the kinds it conflicts with on one source:
#: every pair in which at least one of the two writes.
CONFLICTS = {
    "insert": ("delete", "has", "successors"),
    "delete": ("insert", "has", "successors"),
    "has": ("insert", "delete"),
    "successors": ("insert", "delete"),
}


def split_runs(window: List[Request]) -> Iterator[Tuple[str, List[Request]]]:
    """Yield ``(kind, requests)`` runs: each barrier alone, in place, and the
    single requests between barriers one run per kind per conflict layer."""
    layers: List[Dict[str, List[Request]]] = []
    marks: Dict[object, Dict[str, int]] = {}  # source -> kind -> top layer
    for request in window:
        kind = request.kind
        if not request.single or kind == "analytics":
            for layer in layers:
                yield from layer.items()
            layers, marks = [], {}
            yield kind, [request]
            continue
        payload = request.payload
        seen = marks.setdefault(payload if kind == "successors" else payload[0], {})
        level = seen.get(kind, 0)
        for other in CONFLICTS[kind]:
            top = seen.get(other)
            if top is not None and top >= level:
                level = top + 1
        seen[kind] = level
        if level == len(layers):
            layers.append({})
        layers[level].setdefault(kind, []).append(request)
    for layer in layers:
        yield from layer.items()
