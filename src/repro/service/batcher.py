"""Micro-batching: turn a FIFO request stream into store-sized batch calls.

A :class:`Request` carries the items of one client call: a *list* request
holds up to ``max_batch`` edges (or nodes) and resolves to the store's own
batch return value; a *single* request is the one-item case, flagged so its
future resolves to a bare ``bool`` / ``list``.  Two pieces turn the queue
into store calls, both order-preserving:

* :func:`gather_window` pulls one *window* of requests off the queue --
  blocking until a first request arrives (or the queue closes, or its
  ``wake`` is called: both hand back an empty window), taking up
  to ``max_batch`` requests under that one lock acquisition, then waiting at
  most ``max_delay_s`` for stragglers.  ``max_delay_s=0`` is the
  latency-first mode: the window is whatever was queued at that moment, so
  a lone synchronous client never pays an artificial delay, while
  concurrent clients still coalesce naturally (requests that arrive while a
  batch is executing pile up for the next window).
* :func:`split_runs` cuts a window into runs.  A list request is a run of
  its own; consecutive single requests of one kind form a maximal run.
  Each run becomes one store batch call (``insert_edges`` /
  ``delete_edges`` / ``has_edges`` / ``successors_many``; a run of several
  single mutations adds a ``has_edges`` pre-probe, see
  :mod:`repro.service.service`), and because runs never reorder requests,
  the dispatch is a faithful serialization of the submission order -- an
  insert followed by a delete of the same edge always lands in that order,
  which is what lets a single-threaded client (and the differential
  fuzzer) reason about results against a sequential oracle.  No run holds
  more than ``max_batch`` items, so no store call does either.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from concurrent.futures import Future
from typing import Callable, Iterator, List, Optional, Tuple

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


def split_runs(window: List[Request]) -> Iterator[Tuple[str, List[Request]]]:
    """Yield ``(kind, requests)`` runs in order: each list request alone,
    consecutive same-kind single requests together."""
    run: List[Request] = []
    for request in window:
        if run and (request.kind != run[0].kind or not request.single):
            yield run[0].kind, run
            run = []
        if request.single:
            run.append(request)
        else:
            yield request.kind, [request]
    if run:
        yield run[0].kind, run
