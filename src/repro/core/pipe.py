"""Pipes: emulated links with a bandwidth queue and a delay line.

Mechanics follow dummynet as extended by the paper (Sec. 2.2): when a
packet (descriptor) arrives at a pipe it is dropped on randomized
loss or queue overflow; otherwise its *dequeue* time is computed from
the sizes of all earlier queued packets and the pipe bandwidth. On
dequeue the packet transfers to the delay line, where it waits the
pipe's latency before exiting.

Each pipe maintains the computation twice:

* in *scheduled* time — driven by the arrival times the (possibly
  tick-quantized) scheduler observed; this determines actual behavior;
* in *ideal* time — exact arithmetic, used for accuracy accounting
  and for packet-debt correction when enabled.

The queues themselves live in the pipe's
:class:`~repro.core.kernel.DelayLine`; the arrival math stays here.
"""

from __future__ import annotations

from time import perf_counter
from typing import List

from repro.core.kernel import DelayLine
from repro.core.monitor import DROP_DOWN, DROP_OVERFLOW, DROP_RANDOM
from repro.core.packet import PacketDescriptor
from repro.core.queues import DROP_TAIL, DropTailQueue

INFINITY = float("inf")


class Pipe:
    """One unidirectional emulated link."""

    __slots__ = (
        "id",
        "link_id",
        "src_node",
        "dst_node",
        "bandwidth_bps",
        "latency_s",
        "loss_rate",
        "queue_limit",
        "qdisc",
        "owner",
        "up",
        "_free_at",
        "_ideal_free_at",
        "_line",
        "_sched_hint",
        "arrivals",
        "departures",
        "drops_overflow",
        "drops_random",
        "drops_down",
        "refusal",
        "bytes_accepted",
        "bytes_through",
        "batch_departures",
        "peak_backlog",
        "_timer",
        "_tx_cache",
        "_droptail",
    )

    #: Runtime-adjustable knobs accepted by :meth:`set_params`.
    PARAM_NAMES = ("bandwidth_bps", "latency_s", "loss_rate", "queue_limit")

    def __init__(
        self,
        pipe_id: int,
        bandwidth_bps: float,
        latency_s: float,
        loss_rate: float = 0.0,
        queue_limit: int = 50,
        qdisc=None,
        link_id: int = -1,
        src_node: int = -1,
        dst_node: int = -1,
    ):
        self.id = pipe_id
        self.link_id = link_id
        self.src_node = src_node
        self.dst_node = dst_node
        self.bandwidth_bps = float(bandwidth_bps)
        self.latency_s = float(latency_s)
        self.loss_rate = float(loss_rate)
        self.queue_limit = int(queue_limit)
        self.qdisc = qdisc or DROP_TAIL
        # Plain drop-tail admission is a single comparison; inline it
        # on the arrival path instead of dispatching through admit().
        self._droptail = type(self.qdisc) is DropTailQueue
        self.owner = 0
        self.up = True
        self._free_at = 0.0
        self._ideal_free_at = 0.0
        #: Bandwidth queue + delay line as rows of
        #: (descriptor, time, ideal).
        self._line = DelayLine()
        self._sched_hint = INFINITY  # deadline the scheduler knows about
        self.arrivals = 0
        self.departures = 0
        self.drops_overflow = 0
        self.drops_random = 0
        self.drops_down = 0
        #: Outcome kind of the most recent refusal
        #: (:mod:`repro.core.monitor`), set only on the drop paths.
        self.refusal = None
        #: Bytes admitted to the bandwidth queue (offered load that
        #: survived the drop checks).
        self.bytes_accepted = 0
        #: Bytes that fully exited the pipe. Counted at departure by
        #: the delay line's drain, so packets destroyed by
        #: :meth:`flush` (a dying link takes its queue with it) never
        #: inflate the delivered-throughput view that monitor/obs
        #: report.
        self.bytes_through = 0
        #: Departures delivered in multi-packet batches (a run of >= 2
        #: due exits drained by one service call) — the §2.2 batching
        #: win, observable as the ``pipe.batch_departures`` metric.
        self.batch_departures = 0
        self.peak_backlog = 0
        # transmission_time memo for the current bandwidth: packet
        # sizes cluster on a handful of MTU/ACK values, so the
        # division is paid once per (size, bandwidth generation).
        self._tx_cache: dict = {}
        # Observability timing hook: a Histogram when the owning
        # emulation runs with a live registry, else None (one
        # attribute check per arrival — the zero-overhead default).
        self._timer = None

    # ------------------------------------------------------------------

    @property
    def backlog_pkts(self) -> int:
        """Packets waiting for (or in) transmission."""
        return self._line.bw_len

    @property
    def in_flight(self) -> int:
        """Packets anywhere inside the pipe."""
        line = self._line
        return line.bw_len + line.dl_len

    def transmission_time(self, size_bytes: int) -> float:
        tx = self._tx_cache.get(size_bytes)
        if tx is None:
            tx = size_bytes * 8.0 / self.bandwidth_bps
            self._tx_cache[size_bytes] = tx
        return tx

    def arrival(
        self,
        descriptor: PacketDescriptor,
        now: float,
        ideal_now: float,
        rng=None,
    ) -> bool:
        """Offer a descriptor to this pipe at scheduled time ``now``
        (``ideal_now`` is the exact-arithmetic arrival). Returns False
        on a virtual drop."""
        timer = self._timer
        if timer is not None:
            t0 = perf_counter()  # repro: allow-wallclock
            accepted = self._arrival(descriptor, now, ideal_now, rng)
            timer.observe(perf_counter() - t0)  # repro: allow-wallclock
            return accepted
        return self._arrival(descriptor, now, ideal_now, rng)

    def _arrival(
        self,
        descriptor: PacketDescriptor,
        now: float,
        ideal_now: float,
        rng=None,
    ) -> bool:
        self.arrivals += 1
        if not self.up:
            self.drops_down += 1
            self.refusal = DROP_DOWN
            return False
        if self.loss_rate > 0.0 and rng is not None and rng.random() < self.loss_rate:
            self.drops_random += 1
            self.refusal = DROP_RANDOM
            return False
        line = self._line
        backlog = line.bw_len
        if self._droptail:
            admitted = backlog < self.queue_limit
        else:
            admitted = self.qdisc.admit(backlog, self.queue_limit, now, rng)
        if not admitted:
            self.drops_overflow += 1
            self.refusal = DROP_OVERFLOW
            return False
        size = descriptor.packet.size_bytes
        tx = self._tx_cache.get(size)
        if tx is None:
            tx = self.transmission_time(size)
        free_at = self._free_at
        dequeue_at = (now if now > free_at else free_at) + tx
        self._free_at = dequeue_at
        ideal_free = self._ideal_free_at
        ideal_dequeue = (ideal_now if ideal_now > ideal_free else ideal_free) + tx
        self._ideal_free_at = ideal_dequeue
        ideal_exit = ideal_dequeue + self.latency_s
        descriptor.ideal_time = ideal_exit
        line.admit(descriptor, dequeue_at, ideal_exit)
        if backlog >= self.peak_backlog:
            self.peak_backlog = backlog + 1
        self.bytes_accepted += size
        return True

    def next_deadline(self) -> float:
        """Earliest future event in this pipe: a dequeue into the
        delay line or an exit from it."""
        return self._line.head_deadline

    def service(self, now: float) -> List[PacketDescriptor]:
        """Advance pipe state to ``now``; return descriptors that have
        fully exited (dequeued and served their latency). The delay
        line drains the due *run* in one call (batched delivery) and
        counts the departures (:meth:`DelayLine.drain`, which
        :meth:`PipeScheduler.collect` calls directly)."""
        return self._line.drain(self, now)

    def flush(self, outcomes=None) -> int:
        """Drop everything queued or in flight (a link that dies takes
        its queue with it). Returns the number of packets lost; each
        is folded into ``outcomes`` (an armed outcome digest) as a
        down drop.

        Resets ``_sched_hint`` to INFINITY so the owning scheduler's
        heap entry for this pipe goes stale and is discarded instead
        of firing a spurious wakeup — and so a post-flush arrival is
        not shadowed by the orphaned earlier deadline."""
        lost = self._line.flush(outcomes)
        self.drops_down += lost
        self._free_at = 0.0
        self._ideal_free_at = 0.0
        self._sched_hint = INFINITY
        return lost

    # ------------------------------------------------------------------
    # Dynamic reconfiguration (cross traffic, faults)
    # ------------------------------------------------------------------

    def set_params(self, **params) -> None:
        """Adjust pipe parameters in place. In-flight packets keep
        their already-computed times (dummynet semantics); new
        arrivals see the new parameters.

        Unknown parameter names raise :class:`ValueError` (a silently
        ignored typo would emulate the wrong network)."""
        unknown = set(params) - set(self.PARAM_NAMES)
        if unknown:
            raise ValueError(
                f"unknown pipe parameter(s) {sorted(unknown)}; "
                f"valid knobs: {', '.join(self.PARAM_NAMES)}"
            )
        # Convert and check every value before assigning any, so a
        # rejected call leaves the pipe as it was.
        bandwidth_bps, latency_s, loss_rate, queue_limit = (
            None if params.get(name) is None else kind(params[name])
            for name, kind in zip(self.PARAM_NAMES, (float, float, float, int))
        )
        if bandwidth_bps is not None and bandwidth_bps <= 0:
            raise ValueError("bandwidth must be positive")
        if latency_s is not None and latency_s < 0:
            raise ValueError("latency must be >= 0")
        if loss_rate is not None and not 0.0 <= loss_rate < 1.0:
            raise ValueError("loss rate must be in [0, 1)")
        if queue_limit is not None and queue_limit < 1:
            raise ValueError("queue limit must be >= 1")
        if bandwidth_bps is not None:
            if bandwidth_bps != self.bandwidth_bps:
                # New bandwidth generation: drop the memoized
                # per-size transmission times.
                self._tx_cache.clear()
            self.bandwidth_bps = bandwidth_bps
        if latency_s is not None:
            self.latency_s = latency_s
        if loss_rate is not None:
            self.loss_rate = loss_rate
        if queue_limit is not None:
            self.queue_limit = queue_limit

    def __repr__(self) -> str:
        return (
            f"<Pipe {self.id} {self.src_node}->{self.dst_node} "
            f"{self.bandwidth_bps/1e6:g}Mb/s {self.latency_s*1e3:g}ms "
            f"q={self.backlog_pkts}/{self.queue_limit}>"
        )
