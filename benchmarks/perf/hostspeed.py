"""How fast the host is running right now, from outside the program.

The reference host gives the benchmark two processors of a shared machine,
and what else runs on that machine decides, second by second and sometimes
for minutes, how much work a processor gets done: the same loop takes 27 ms
or 45 ms, and now and then the processor is taken away altogether.  No
statistic over a 20-second run removes a slow spell that lasts longer than
the run.  So the benchmark carries a fixed piece of work of its own -- pure
Python over a dict of sets, nothing of ``repro`` in it, about a millisecond
-- runs it every few hundredths of a second between the pieces it times, and
divides each piece's seconds by how many times longer than
:data:`REFERENCE_S` that work took around it.  Every time the benchmark
reports is therefore a time *at the reference speed* (README, "How a run is
kept steady").
"""

from __future__ import annotations

import random
import statistics
import time
from bisect import bisect_left, bisect_right
from typing import List

#: Seconds the fixed work takes on the reference host when nothing else
#: slows it.  A constant, not a measurement of the run in hand: a run that
#: falls into a slow spell from end to end must still be scaled.  On another
#: host every time the benchmark reports shifts by one common factor.
REFERENCE_S = 0.00120
#: A sample older than this is not reused for the end of a piece.
MAX_AGE_S = 0.020
#: A piece is scaled by the samples from this long before it began until
#: just after it ended: the host changes speed about once a second, and one
#: sample alone can be the one the processor was taken away in.
WINDOW_S = 0.2
AFTER_S = 0.010
KEYS = 4000
MEMBERS = 4


class HostSpeed:
    """Samples of the host's speed, taken on demand; 1.0 is the reference."""

    def __init__(self) -> None:
        rng = random.Random(0x5EED)
        self.table = {rng.getrandbits(62): {rng.getrandbits(62) for _ in range(MEMBERS)}
                      for _ in range(KEYS)}
        self.keys = list(self.table)
        #: When each sample began, and how many times REFERENCE_S it took.
        self.times: List[float] = []
        self.factors: List[float] = []

    def sample(self) -> float:
        """Do the fixed work on the clock the pieces are timed on."""
        table = self.table
        began = time.perf_counter()
        acc = 0
        for key in self.keys:
            members = table[key]
            acc += len(members) + (key * 2654435761 >> 7 & 1023)
            members.add(acc)
            members.discard(acc)
        self.times.append(began)
        self.factors.append((time.perf_counter() - began) / REFERENCE_S)
        return self.factors[-1]

    def refresh(self) -> None:
        """A new sample, unless the latest is fresh."""
        if not self.times or time.perf_counter() - self.times[-1] > MAX_AGE_S:
            self.sample()

    def between(self, began: float, ended: float) -> float:
        """The factor for a piece that ran from ``began`` to ``ended``: the
        mean of the samples around it (1.0 if there are none)."""
        first = bisect_left(self.times, began - WINDOW_S)
        last = bisect_right(self.times, ended + AFTER_S)
        if first < last:
            return statistics.fmean(self.factors[first:last])
        return self.factors[last - 1] if last else 1.0

    def around(self, seconds: float) -> float:
        """The factor for a piece of ``seconds`` that has just ended on this thread."""
        self.refresh()
        now = time.perf_counter()
        return self.between(now - seconds, now)
