"""Bounded FIFO request queue with explicit backpressure and close semantics.

``queue.Queue`` almost fits, but the service needs five behaviours it does
not provide cleanly: an immediate *reject* mode for full queues (the
backpressure policy a traffic-shedding front door wants), a ``close`` that
wakes every blocked producer/consumer exactly once, gets that keep draining
items after close so in-flight requests are never dropped, a ``get_many``
that hands the consumer a whole dispatch window under one lock acquisition,
and a ``wake`` that brings the parked consumer back without an item (a
durable commit's fsyncs finish on other threads while the dispatcher waits
here).  The implementation is a deque guarded by one lock with two
condition variables (producers wait for space, consumers for items), so a
``put`` never wakes another producer nor a ``get_many`` another consumer,
and with nobody parked on the other side the hop is one lock round-trip.
"""

from __future__ import annotations

import time
from collections import deque
from threading import Condition, RLock
from typing import Optional

from .errors import QueueFullError, ServiceClosedError

#: Backpressure policies accepted by :class:`BoundedRequestQueue`.
POLICIES = ("block", "reject")


class BoundedRequestQueue:
    """FIFO queue of at most ``capacity`` items.

    Args:
        capacity: Maximum number of queued (not yet dispatched) items.
        policy: What a producer experiences when the queue is full --
            ``"block"`` waits for space (backpressure propagates to the
            caller's thread), ``"reject"`` raises :class:`QueueFullError`
            immediately (the caller sheds load).

    Close semantics: after :meth:`close`, ``put`` raises
    :class:`ServiceClosedError` (including producers already blocked on a
    full queue), while ``get_many`` keeps returning queued items until the
    queue is drained -- a consumer discovers termination by getting nothing
    back from a closed queue.
    """

    def __init__(self, capacity: int = 1024, policy: str = "block"):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if policy not in POLICIES:
            raise ValueError(f"policy must be one of {POLICIES}, got {policy!r}")
        self.capacity = capacity
        self.policy = policy
        self._items: deque = deque()
        self._lock = RLock()
        self._not_empty = Condition(self._lock)
        self._not_full = Condition(self._lock)
        self._closed = False
        self._woken = False

    def __len__(self) -> int:
        return len(self._items)

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has been called (items may still be queued)."""
        return self._closed

    def put(self, item, timeout: Optional[float] = None) -> None:
        """Enqueue ``item``, honouring the backpressure policy.

        Raises:
            QueueFullError: full queue under ``policy="reject"`` (or when a
                ``policy="block"`` wait exceeds ``timeout``).
            ServiceClosedError: the queue is (or becomes, while blocked)
                closed.
        """
        with self._lock:
            if self._closed:
                raise ServiceClosedError("request queue is closed")
            if len(self._items) >= self.capacity:
                if self.policy == "reject":
                    raise QueueFullError(
                        f"request queue full ({self.capacity} pending)"
                    )
                deadline = None if timeout is None else time.monotonic() + timeout
                while len(self._items) >= self.capacity:
                    remaining = None
                    if deadline is not None:
                        remaining = deadline - time.monotonic()
                        if remaining <= 0:
                            raise QueueFullError(
                                f"request queue still full after {timeout}s"
                            )
                    self._not_full.wait(remaining)
                    # A blocked producer must never enqueue into a closed
                    # queue (its request would be stranded unresolved).
                    if self._closed:
                        raise ServiceClosedError("request queue closed while blocked")
            self._items.append(item)
            self._not_empty.notify()

    def get_many(self, limit: int, timeout: Optional[float] = None) -> list:
        """Dequeue up to ``limit`` of the oldest items in one acquisition.

        Blocks until at least one item is queued; returns an empty list on
        timeout, once the queue is closed and drained, or when :meth:`wake`
        was called since the last ``get_many`` returned.  ``timeout=None``
        waits indefinitely (``close`` and ``wake`` end the wait),
        ``timeout=0`` never blocks.
        """
        with self._lock:
            items = self._items
            if not items:
                deadline = None if timeout is None else time.monotonic() + timeout
                while not items:
                    if self._closed or self._woken:
                        self._woken = False
                        return []
                    remaining = None
                    if deadline is not None:
                        remaining = deadline - time.monotonic()
                        if remaining <= 0:
                            return []
                    self._not_empty.wait(remaining)
            self._woken = False
            if limit >= len(items):
                taken = list(items)
                items.clear()
            else:
                taken = [items.popleft() for _ in range(limit)]
            self._not_full.notify(len(taken))
            return taken

    def wake(self) -> None:
        """End the consumer's ``get_many`` -- the one it is in, or else its
        next -- even with nothing queued (any thread).

        For work the consumer has parked beside the queue: whoever completes
        it calls this, and the consumer looks at that work every time
        ``get_many`` returns, with items or without -- any return uses up the
        wake-ups before it, and a wake-up that arrives after the consumer has
        looked costs it one empty return.  The wait itself stays untimed:
        nothing polls.
        """
        with self._lock:
            self._woken = True
            self._not_empty.notify()

    def close(self) -> list:
        """Refuse new puts and wake all waiters; return a snapshot of leftovers.

        The queued items stay gettable (the dispatcher drains them); the
        returned snapshot lets a consumer that will *not* drain (a service
        that was never started) fail the pending requests instead of
        dropping them.
        """
        with self._lock:
            self._closed = True
            self._not_empty.notify_all()
            self._not_full.notify_all()
            return list(self._items)
