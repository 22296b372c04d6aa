"""How fast this host runs Python right now.

On a small shared cloud host the speed of the whole machine drifts:
back-to-back timings of one fixed loop move by 40% in plateaus that
last minutes, and a run's CPU time drifts with its wall time, so no raw
time is steady from one run to the next. :func:`reference_s` times a
fixed, program-independent imitation of an event loop (a heap of
timestamped items, dict lookups, small objects, float arithmetic)
right before and after every iteration; ``run.py`` scales the
iteration's times by :func:`scale`, ``(NOMINAL_S / reference) **
ELASTICITY``: a reported time is roughly the time the iteration would
have taken on a host that runs the reference in :data:`NOMINAL_S`.

The tight reference loop is hit harder than the program by a busy
neighbour: it slows by up to 2x in bursts of a fraction of a second
that move the program's times much less. Over ten-seed passes of every
workload, times scaled with the exponent 0.75 spread least (e.g.
``ring_mp2`` 0.063 against 0.094 at 1.0 and 0.167 unscaled). The loop
never touches the program, so a change to the program moves its scaled
times exactly as much as its raw ones; the raw times are kept in the
result file too.
"""

from __future__ import annotations

import heapq
from time import perf_counter

#: Reference duration, per loop, on the host the scale is quoted for.
NOMINAL_S = 0.03
#: How much of the reference's change in speed a time is corrected for.
ELASTICITY = 0.75
LOOPS = 4
EVENTS = 20_000


class _Item:
    __slots__ = ("key", "size", "hops")

    def __init__(self, key: int, size: int) -> None:
        self.key = key
        self.size = size
        self.hops = 0


def _loop(events: int) -> float:
    heap = []
    table = {}
    seq = 0
    total = 0.0
    for key in range(64):
        seq += 1
        heapq.heappush(heap, (key * 1e-4, seq, _Item(key, 64 + key)))
    for _ in range(events):
        now, _, item = heapq.heappop(heap)
        item.hops += 1
        slot = table.get(item.key)
        if slot is None:
            slot = table[item.key] = [0, 0.0]
        slot[0] += 1
        slot[1] += item.size * 8.0 / 1e6
        total += slot[1] - now
        seq += 1
        delay = 1e-4 + (item.hops % 7) * 1e-5
        heapq.heappush(heap, (now + delay, seq, _Item(item.key, item.size)))
    return total


def reference_s() -> float:
    """Mean wall seconds per reference loop over :data:`LOOPS` loops."""
    t0 = perf_counter()
    for _ in range(LOOPS):
        _loop(EVENTS)
    return (perf_counter() - t0) / LOOPS


def scale(reference: float) -> float:
    """Factor that takes a time measured next to a reference loop of
    ``reference`` seconds to the nominal host."""
    return (NOMINAL_S / reference) ** ELASTICITY
