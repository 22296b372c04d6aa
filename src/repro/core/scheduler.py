"""The heap-of-pipes scheduler (paper Sec. 2.2).

Pipes are kept in a heap sorted by earliest deadline — the exit time
of the first packet in each pipe. The prototype's scheduler executes
once every clock tick (10 kHz) at the kernel's highest priority; in
virtual time we reproduce exactly that observable behavior by
*quantizing* all pipe service to the tick grid: a deadline at time t
is serviced at the first tick boundary >= t. An idle tick does no
work, so (unlike the real kernel) we never pay for empty wakeups —
the emulated timing is identical.

Setting ``tick_s = 0`` gives exact event-driven service, used as the
"reference" (ns2-stand-in) mode.
"""

from __future__ import annotations

import heapq
import math
from time import perf_counter
from typing import List, Tuple

from repro.core.packet import PacketDescriptor
from repro.core.pipe import INFINITY, Pipe


class PipeScheduler:
    """Earliest-deadline pipe heap with tick quantization.

    This object is passive: the owning core node asks for
    :meth:`next_wake` and calls :meth:`collect` when the wake time
    arrives. Stale heap entries (pipes whose deadline moved) are
    discarded lazily.
    """

    def __init__(self, tick_s: float = 1e-4):
        if tick_s < 0:
            raise ValueError("tick must be >= 0")
        self.tick_s = tick_s
        # Float-error slack applied when maturing deadlines against a
        # wake boundary (see collect); precomputed once.
        self._slack = tick_s * 1e-3 if tick_s > 0 else 0.0
        self._heap: List[Tuple[float, int, Pipe]] = []
        self._seq = 0
        self.hops_serviced = 0
        self.wakeups = 0
        # Observability timing hook: a Histogram measuring wall-clock
        # time per collect() when the owning emulation runs with a
        # live registry, else None (zero overhead).
        self.collect_timer = None
        # Observability batching hook: a Histogram of departures per
        # serviced pipe per collect (the ``sched.batch_size`` metric),
        # armed alongside collect_timer, else None.
        self.batch_hist = None

    def quantize(self, time: float) -> float:
        """The first tick boundary at or after ``time``."""
        if self.tick_s <= 0 or time == INFINITY:
            return time
        ticks = math.ceil(time / self.tick_s - 1e-9)
        return ticks * self.tick_s

    def notify(self, pipe: Pipe) -> None:
        """(Re)insert ``pipe`` after its deadline may have changed.

        Re-pushing is skipped when the deadline is unchanged (or
        covered by an earlier entry): ``_sched_hint`` is the deadline
        of the pipe's live heap entry, so only a strictly earlier
        deadline needs a new entry. The superseded entry goes stale
        and is discarded lazily.
        """
        # The delay line keeps its earliest pending time current
        # (see repro.core.kernel); one attribute read replaces
        # the old double queue peek. An empty pipe reads INFINITY,
        # which never beats the hint.
        deadline = pipe._line.head_deadline
        if deadline >= pipe._sched_hint:
            return
        pipe._sched_hint = deadline
        self._seq += 1
        heapq.heappush(self._heap, (deadline, self._seq, pipe))

    def earliest_deadline(self) -> float:
        # An entry is live iff its deadline equals the pipe's hint:
        # pushes strictly decrease the hint (older entries read
        # higher), collect resets it to INFINITY, and flush orphans
        # its entry the same way. This avoids recomputing
        # pipe.next_deadline() on every peek — the scheduler is asked
        # for its earliest deadline after every wake and every offer.
        heap = self._heap
        while heap:
            deadline, _seq, pipe = heap[0]
            if deadline != pipe._sched_hint:
                # Stale: superseded, already serviced, or flushed.
                heapq.heappop(heap)
                continue
            return deadline
        return INFINITY

    def next_wake(self) -> float:
        """Tick-quantized time of the next required service."""
        return self.quantize(self.earliest_deadline())

    def collect(self, now: float) -> List[Tuple[Pipe, List[PacketDescriptor]]]:
        """Service every pipe whose deadline has matured by ``now``.

        Returns (pipe, exited descriptors) in deadline order; pipes
        with remaining queued packets are re-inserted with their new
        deadline. The core node forwards exited descriptors to their
        next pipe or destination and charges CPU per hop.
        """
        self.wakeups += 1
        timer = self.collect_timer
        t0 = perf_counter() if timer is not None else 0.0  # repro: allow-wallclock
        # Quantization rounds deadlines *down* to the wake boundary
        # modulo float error (e.g. a deadline of 693.0000000000001
        # ticks waking at tick 693); accept anything within a
        # thousandth of a tick of the boundary so such deadlines
        # mature instead of re-arming a same-instant wake forever.
        cutoff = now + self._slack
        serviced: List[Tuple[Pipe, List[PacketDescriptor]]] = []
        heap = self._heap
        heappop = heapq.heappop
        heappush = heapq.heappush
        seq = self._seq
        batch_hist = self.batch_hist
        while heap and heap[0][0] <= cutoff:
            deadline, _seq, pipe = heappop(heap)
            if deadline != pipe._sched_hint:
                continue  # stale entry; a fresher one covers this pipe
            # One call services the pipe: it drains the whole due run
            # from the delay line (batched departures), counts the
            # departures and refreshes the line's head deadline.
            line = pipe._line
            exits = line.drain(pipe, cutoff)
            if exits:
                self.hops_serviced += len(exits)
                serviced.append((pipe, exits))
                if batch_hist is not None:
                    batch_hist.observe(len(exits))
            # Re-insert with the pipe's new deadline (notify() with the
            # hint freshly cleared, inlined: any finite deadline wins).
            deadline = line.head_deadline
            if deadline == INFINITY:
                pipe._sched_hint = INFINITY
                continue
            pipe._sched_hint = deadline
            seq += 1
            heappush(heap, (deadline, seq, pipe))
        self._seq = seq
        # Eagerly drain stale entries off the top so the next_wake()
        # that immediately follows every collect peeks a live entry
        # instead of re-discarding the same churn.
        while heap and heap[0][0] != heap[0][2]._sched_hint:
            heappop(heap)
        if timer is not None:
            timer.observe(perf_counter() - t0)  # repro: allow-wallclock
        return serviced

    @property
    def pending_pipes(self) -> int:
        """Heap size (including stale entries)."""
        return len(self._heap)
