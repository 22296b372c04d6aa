"""Physical wires: serialization, bounded queues, drops.

A :class:`PhysicalLink` models one direction of a real cable/switch
port in the hosting cluster (not an emulated pipe!): packets are
serialized at the wire rate, wait in a bounded FIFO when the wire is
busy, and are dropped when the queue is full. These are the places
where the paper's *physical* drops happen — distinct from the
emulated "virtual" drops inside pipes.

A transmit costs one heap entry, the delivery. The queue is the FIFO
of accepted packets' serialization-done times, trimmed lazily against
the clock: a packet whose serialization ends at or before ``now`` has
left it (``done <= now``), so no per-packet completion event is
needed to count it out.
"""

from __future__ import annotations

from collections import deque
from heapq import heappush
from typing import Any, Callable

from repro.engine.simulator import Simulator


class PhysicalLink:
    """One direction of a physical link.

    ``send`` returns True if the packet was accepted (it will be
    delivered via the callback after serialization + latency) and
    False if the transmit queue overflowed.
    """

    def __init__(
        self,
        sim: Simulator,
        rate_bps: float,
        latency_s: float = 20e-6,
        queue_limit: int = 256,
        framing_bytes: int = 0,
        name: str = "",
    ):
        if rate_bps <= 0:
            raise ValueError("link rate must be positive")
        self.sim = sim
        self.rate_bps = float(rate_bps)
        self.latency_s = float(latency_s)
        self.queue_limit = int(queue_limit)
        self.framing_bytes = int(framing_bytes)
        self.name = name
        # Seconds per wire byte, precomputed: send() is the hottest
        # call site outside the event loop itself.
        self._s_per_byte = 8.0 / self.rate_bps
        self._free_at = 0.0
        # Serialization-done times of the packets still queued, in
        # FIFO (and time) order; built on the first send, so a link
        # that never transmits holds no deque.
        self._done = None
        self.accepted = 0
        self.dropped = 0
        self.bytes_sent = 0

    @property
    def queued(self) -> int:
        """Packets accepted but not yet fully serialized."""
        done = self._done
        if done is None:
            return 0
        now = self.sim._now
        while done and done[0] <= now:
            done.popleft()
        return len(done)

    def busy_until(self) -> float:
        """Time at which the wire becomes idle."""
        return self._free_at

    def send(self, size_bytes: int, deliver_fn: Callable, *args: Any) -> bool:
        """Transmit ``size_bytes``; invoke ``deliver_fn(*args)`` on
        arrival at the far end. False (and a drop) on queue overflow."""
        sim = self.sim
        now = sim._now
        queue = self._done
        if queue is None:
            queue = self._done = deque()
        while queue and queue[0] <= now:
            queue.popleft()
        if len(queue) >= self.queue_limit:
            self.dropped += 1
            return False
        start = self._free_at
        if start < now:
            start = now
        wire_bytes = size_bytes + self.framing_bytes
        done = start + wire_bytes * self._s_per_byte
        self._free_at = done
        queue.append(done)
        self.accepted += 1
        self.bytes_sent += wire_bytes
        # Simulator.post(), inlined (the delivery is never cancelled,
        # and done >= now by construction so the past-check is
        # vacuous): this is the hottest scheduling site of a
        # saturated run.
        sim._seq = seq = sim._seq + 1
        heappush(sim._heap, (done + self.latency_s, seq, None, deliver_fn, args))
        return True

    def utilization(self, since: float, now: float) -> float:
        """Rough utilization proxy: fraction of wall time the wire has
        been committed, over [since, now]."""
        if now <= since:
            return 0.0
        busy = min(self._free_at, now) - since
        return max(0.0, min(1.0, busy / (now - since)))

    def __repr__(self) -> str:
        return f"<PhysicalLink {self.name or hex(id(self))} {self.rate_bps/1e6:g}Mb/s>"
