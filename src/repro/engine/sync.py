"""Partitioned execution: per-core event domains under epoch sync.

The paper's multi-core deployment partitions pipes across core nodes
and tunnels cross-core packets over the cluster switch. This module
turns that modeled structure into a real execution architecture:

* each emulated core node owns an :class:`~repro.engine.domain.EventDomain`
  (its own heap, clock, and seq counter);
* cross-domain work — tunneled descriptors, payload-caching delivery
  orders, packets exiting toward a remote host — travels as
  :class:`DomainMessage`\\ s through a :class:`DomainRouter` mailbox
  instead of as direct calls;
* a conservative epoch barrier advances every domain through its own
  causally-closed window, computed from a :class:`LookaheadMatrix` of
  **per-domain-pair** delivery bounds. A message from domain ``i``
  cannot reach domain ``j`` before ``next_send(i) + L[i][j]``, so
  domain ``j`` may dispatch everything strictly below
  ``min_i(next_send(i) + L[i][j])`` without hearing from anyone — the
  SimBricks argument, per channel instead of per cluster: the pairs
  that are only connected through high-latency pipes synchronize at
  that latency, and pairs with no cross-domain path at all never
  constrain each other.

The matrix entries come from the actual cross-domain relations the
emulation binds (see ``Emulation._derive_lookahead_matrix``): a
descriptor that will cross from ``i`` to ``j`` is announced when its
*current* pipe admits it, and the pipe's latency is in-flight time the
synchronizer gets for free. :class:`LookaheadMatrix` closes the
entries under min-plus composition (Floyd–Warshall to a numeric
fixpoint) because a relay chain ``i -> k -> j`` can deliver into ``j``
after only ``L[i][k] + L[k][j]``, which may be far below the direct
``L[i][j]`` entry.

Determinism contract: between epochs, pending messages are injected
into their destination heaps in ``(time, src_domain, seq)`` order —
a total order independent of execution interleaving — and both
executors compute windows with the same :func:`epoch_windows` on the
same post-flush next-event vector, so the serial executor here and
the multiprocess executor in :mod:`repro.engine.parallel` produce
identical per-domain event streams for the same scenario.
"""

from __future__ import annotations

from math import ceil
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from repro.engine.domain import INFINITY, EventDomain, SimulationError

# Cross-domain message kinds.
MSG_TUNNEL = 0   # a PacketDescriptor whose next pipe lives on another core
MSG_DELIVER = 1  # a payload-caching delivery order returning to the entry core
MSG_HOST = 2     # a packet exiting the core fabric toward a remote edge host


class DomainMessage(NamedTuple):
    """One cross-domain send, as the router queues it.

    ``seq`` is the *source domain's* send counter: together with
    ``(time, src_domain)`` it totally orders every message in an
    epoch, which is what makes injection deterministic regardless of
    how domains were interleaved while producing them.
    """

    time: float
    src_domain: int
    seq: int
    dst_domain: int
    kind: int
    target: int  # core index (tunnel/deliver) or host index (to-host)
    payload: Any


class DomainChannel:
    """The cross-domain wire: serialization at NIC rate plus switch
    latency, tracked synchronously.

    Cross-domain sends cannot ride the sender's
    :class:`~repro.hardware.links.PhysicalLink` (its delivery callback
    would fire on the *sender's* clock and call into a domain whose
    clock is elsewhere), so the channel computes the arrival time at
    send time: serialization start is the later of now and the wire
    becoming free, and delivery is serialization end plus latency.
    The latency is never below the synchronizer's lookahead — that is
    the conservative-sync safety condition.
    """

    __slots__ = ("rate_bps", "latency_s", "_s_per_byte", "_free_at",
                 "messages", "bytes_sent")

    def __init__(self, rate_bps: float, latency_s: float):
        if rate_bps <= 0:
            raise ValueError("channel rate must be positive")
        if latency_s <= 0:
            raise ValueError("channel latency must be positive (lookahead)")
        self.rate_bps = float(rate_bps)
        self.latency_s = float(latency_s)
        self._s_per_byte = 8.0 / self.rate_bps
        self._free_at = 0.0
        self.messages = 0
        self.bytes_sent = 0

    def delivery_time(self, now: float, size_bytes: int) -> float:
        """Arrival time of a ``size_bytes`` message sent at ``now``."""
        start = self._free_at
        if start < now:
            start = now
        done = start + size_bytes * self._s_per_byte
        self._free_at = done
        self.messages += 1
        self.bytes_sent += size_bytes
        return done + self.latency_s

    def handoff_time(self, not_before: float, size_bytes: int) -> float:
        """Arrival time of a handoff announced while its subject is
        still in flight locally: the payload leaves its pipe at
        ``not_before`` (a future instant the pipe computed at
        admission) and only then serializes onto the cross-domain
        wire. Announcements are made in *admission* order, which is
        not exit order, so they deliberately do not thread through
        ``_free_at`` (an early announce with a late exit would push
        the wire's free time backwards); at descriptor sizes the
        serialization gap this ignores is nanoseconds."""
        self.messages += 1
        self.bytes_sent += size_bytes
        return not_before + size_bytes * self._s_per_byte + self.latency_s


class LookaheadMatrix:
    """Per-domain-pair conservative delivery bounds, min-plus closed.

    ``pairs`` maps ``(src_domain, dst_domain)`` to the minimum virtual
    delay between a send *opportunity* in the source domain and the
    earliest resulting delivery into the destination domain. The
    constructor closes the entries under min-plus composition
    (iterated Floyd–Warshall until a numeric fixpoint): a relay chain
    ``i -> k -> j`` bounds deliveries into ``j`` by
    ``L[i][k] + L[k][j]`` even when the direct ``(i, j)`` relation is
    looser or absent, and the diagonal picks up the cheapest cycle
    through each domain (a domain can be re-entered by mail it
    caused). Pairs with no path stay at infinity and never constrain
    each other's windows.

    ``floor`` is the smallest legal entry — the cross-domain channel
    latency — and ``tick_s`` is the core scheduler period: all sends
    happen inside core wakes, which land on tick boundaries, so
    :func:`epoch_windows` may round each domain's next send
    opportunity up to the next tick. Pass ``tick_s=0`` to disable
    that (exact mode, or debt handling, where wakes can run at
    unaligned instants).
    """

    __slots__ = ("num_domains", "floor", "tick_s", "direct", "_closed",
                 "_min_finite", "_max_finite", "_finite_pairs")

    def __init__(
        self,
        num_domains: int,
        pairs: Optional[Dict[Tuple[int, int], float]] = None,
        floor: float = 0.0,
        tick_s: float = 0.0,
    ):
        if num_domains < 1:
            raise SimulationError("need at least one domain")
        if not floor > 0.0:
            raise SimulationError(
                f"lookahead floor must be positive, got {floor} "
                f"(partitioned execution needs a nonzero minimum "
                f"cross-core latency)"
            )
        self.num_domains = num_domains
        self.floor = float(floor)
        self.tick_s = float(tick_s)
        self.direct: Dict[Tuple[int, int], float] = {}
        for (src, dst), bound in (pairs or {}).items():
            if not (0 <= src < num_domains and 0 <= dst < num_domains):
                raise SimulationError(
                    f"lookahead pair ({src}, {dst}) outside "
                    f"[0, {num_domains})"
                )
            if src == dst:
                raise SimulationError(
                    f"lookahead pair ({src}, {dst}) is a self-loop; "
                    f"intra-domain work never crosses the router"
                )
            if bound < self.floor:
                raise SimulationError(
                    f"lookahead pair ({src}, {dst}) = {bound:g}s is "
                    f"below the channel floor {self.floor:g}s"
                )
            self.direct[(src, dst)] = float(bound)
        self._closed = self._close()
        finite = [
            value
            for row in self._closed
            for value in row
            if value != INFINITY
        ]
        self._min_finite = min(finite) if finite else INFINITY
        self._max_finite = max(finite) if finite else INFINITY
        self._finite_pairs = len(finite)

    @classmethod
    def uniform(cls, num_domains: int, lookahead: float) -> "LookaheadMatrix":
        """Every off-diagonal pair at one global bound — the classic
        single-lookahead synchronizer, as a matrix."""
        pairs = {
            (i, j): float(lookahead)
            for i in range(num_domains)
            for j in range(num_domains)
            if i != j
        }
        return cls(num_domains, pairs, floor=lookahead)

    def _close(self) -> List[List[float]]:
        n = self.num_domains
        closed = [[INFINITY] * n for _ in range(n)]
        for (src, dst), bound in self.direct.items():
            if bound < closed[src][dst]:
                closed[src][dst] = bound
        # Iterate to a numeric fixpoint (not just one Floyd-Warshall
        # sweep): the epoch planner's monotonicity proof needs the
        # triangle inequality to hold in *float* arithmetic for every
        # (i, k, j) triple, which one sweep does not guarantee.
        changed = True
        while changed:
            changed = False
            for k in range(n):
                row_k = closed[k]
                for i in range(n):
                    d_ik = closed[i][k]
                    if d_ik == INFINITY:
                        continue
                    row_i = closed[i]
                    for j in range(n):
                        via = d_ik + row_k[j]
                        if via < row_i[j]:
                            row_i[j] = via
                            changed = True
        return closed

    def bound(self, src: int, dst: int) -> float:
        """The closed delivery bound from ``src`` to ``dst`` (INFINITY
        when no chain of cross-domain relations connects them)."""
        return self._closed[src][dst]

    @property
    def effective(self) -> float:
        """The tightest finite bound — the scalar the old single-
        lookahead synchronizer would have needed, and what obs reports
        as ``engine.lookahead_s``."""
        return self._min_finite

    @property
    def widest(self) -> float:
        return self._max_finite

    def items(self) -> List[Tuple[int, int, float]]:
        """Finite closed entries as ``(src, dst, bound)``, sorted —
        the per-pair breakdown obs exports."""
        return [
            (i, j, self._closed[i][j])
            for i in range(self.num_domains)
            for j in range(self.num_domains)
            if self._closed[i][j] != INFINITY
        ]

    def __repr__(self) -> str:
        if self._min_finite == INFINITY:
            spread = "inf"
        elif self._min_finite == self._max_finite:
            spread = f"{self._min_finite:g}s"
        else:
            spread = f"{self._min_finite:g}..{self._max_finite:g}s"
        return (
            f"<LookaheadMatrix domains={self.num_domains} "
            f"bounds={spread} pairs={self._finite_pairs}>"
        )


class DomainRouter:
    """The mailbox fabric between domains.

    Senders call :meth:`send` during an epoch; the synchronizer calls
    :meth:`flush` between epochs to inject everything queued, sorted
    by ``(time, src_domain, seq)``. Target resolution (core/host index
    to a live object) happens at injection against the bound
    emulation, which is what lets the multiprocess backend ship the
    same messages between processes as plain data.
    """

    def __init__(self, num_domains: int):
        self.num_domains = num_domains
        self._send_seq = [0] * num_domains
        self._pending: List[DomainMessage] = []
        self._emulation = None
        self.messages_routed = 0

    def bind(self, emulation) -> None:
        """Attach the emulation whose cores/hosts messages address."""
        self._emulation = emulation

    def send(
        self,
        time: float,
        src_domain: int,
        dst_domain: int,
        kind: int,
        target: int,
        payload: Any,
    ) -> None:
        """Queue a message for delivery at virtual ``time``."""
        seq = self._send_seq[src_domain]
        self._send_seq[src_domain] = seq + 1
        self._pending.append(
            DomainMessage(time, src_domain, seq, dst_domain, kind, target, payload)
        )

    # -- synchronizer interface -----------------------------------------

    def take_pending(self) -> List[DomainMessage]:
        """Drain the queue (the multiprocess worker's export path)."""
        pending = self._pending
        self._pending = []
        return pending

    def min_pending_time(self) -> float:
        if not self._pending:
            return INFINITY
        return min(message.time for message in self._pending)

    def flush(self, domains: List[EventDomain]) -> int:
        """Inject every queued message into its destination domain in
        deterministic ``(time, src_domain, seq)`` order."""
        if not self._pending:
            return 0
        pending = self._pending
        self._pending = []
        pending.sort(key=lambda m: (m.time, m.src_domain, m.seq))
        self.inject(domains, pending)
        return len(pending)

    def inject(self, domains: List[EventDomain], messages) -> None:
        """Schedule already-ordered ``messages`` into their domains.

        Callers other than :meth:`flush` (the multiprocess worker)
        must pass messages pre-sorted by ``(time, src_domain, seq)``
        — heap seq numbers are assigned in iteration order, so the
        order here *is* the same-timestamp tie-break.
        """
        from repro.core.node import DELIVER, TUNNEL_IN

        emulation = self._emulation
        if emulation is None:
            raise SimulationError("router has no bound emulation")
        for message in messages:
            domain = domains[message.dst_domain]
            kind = message.kind
            if kind == MSG_TUNNEL:
                domain.post(
                    message.time,
                    emulation.cores[message.target].physical_ingress,
                    TUNNEL_IN,
                    message.payload,
                )
            elif kind == MSG_DELIVER:
                domain.post(
                    message.time,
                    emulation.cores[message.target].physical_ingress,
                    DELIVER,
                    message.payload,
                )
            elif kind == MSG_HOST:
                domain.post(
                    message.time,
                    emulation.hosts[message.target].receive_from_switch,
                    message.payload,
                )
            else:  # pragma: no cover - kinds are module constants
                raise SimulationError(f"unknown message kind {kind}")
        self.messages_routed += len(messages)


def epoch_window(
    next_min: float, lookahead: float, until: Optional[float]
) -> Optional[Tuple[float, bool]]:
    """The next epoch's ``(horizon, inclusive)``, or None when done.

    The window opens at the earliest pending event and extends one
    lookahead: any message sent inside it arrives at or after the
    horizon, so the window is causally closed. The final window is
    clamped to ``until`` and inclusive, matching the single-kernel
    ``run(until=T)`` convention of dispatching events at exactly
    ``T``. Both executors — serial and multiprocess — call this one
    function, so their epoch sequences are identical by construction.
    """
    if next_min == INFINITY:
        return None
    if until is not None:
        if next_min > until:
            return None
        horizon = next_min + lookahead
        if horizon >= until:
            return until, True
        return horizon, False
    return next_min + lookahead, False


def epoch_windows(
    next_times: Sequence[float],
    matrix: LookaheadMatrix,
    until: Optional[float],
) -> Optional[List[Optional[Tuple[float, bool]]]]:
    """Per-domain ``(horizon, inclusive)`` windows for one epoch, or
    ``None`` when the run is done.

    ``next_times[d]`` is domain ``d``'s earliest pending work *after*
    mail flush — the serial executor reads its post-flush heaps, the
    multiprocess parent folds undelivered mail times into the worker-
    reported minima, and both land on the same vector, so both
    executors compute identical window sequences (the digest-equality
    contract).

    For each destination ``j`` the horizon is
    ``min_i(psend_i + L[i][j])`` over the *closed* matrix, where
    ``psend_i`` is domain ``i``'s next send opportunity: its next
    event time, rounded up to the core scheduler tick when the matrix
    carries one (all cross-domain sends are made inside core wakes,
    which land on tick boundaries). The ``i == j`` term uses the
    diagonal — the cheapest mail *cycle* through ``j`` — because a
    domain's own events can come back at it through a relay. Domains
    whose next work lies beyond ``until`` cannot send inside this run
    and drop out of the minima. This is epoch *coalescing*: when no
    near-horizon sender exists, windows grow to whatever the pairwise
    bounds allow instead of creeping one global lookahead per round.

    Boundary semantics at ``until``: a horizon at or past the target
    clamps to ``(until, True)`` — the inclusive final barrier that
    dispatches events at exactly ``until``. A later round may issue
    ``(until, True)`` to the same domain again (mail can land exactly
    on the target); ``EventDomain.run_window`` makes the re-run
    dispatch only the newly injected events, so nothing double-fires
    and the final barrier is never skipped.

    Entries are ``None`` for domains with no work and no reachable
    sender (nothing to do this round); the result is ``None`` only
    when *no* domain has dispatchable work left.
    """
    n = matrix.num_domains
    if len(next_times) != n:
        raise SimulationError(
            f"next_times has {len(next_times)} entries for "
            f"{n} domains"
        )
    tick = matrix.tick_s
    psend: List[float] = []
    any_work = False
    for t in next_times:
        if t == INFINITY or (until is not None and t > until):
            psend.append(INFINITY)
            continue
        any_work = True
        if tick > 0.0:
            aligned = ceil(t / tick - 1e-9) * tick
            psend.append(aligned if aligned > t else t)
        else:
            psend.append(t)
    if not any_work:
        return None
    closed = matrix._closed
    windows: List[Optional[Tuple[float, bool]]] = []
    for j in range(n):
        horizon = INFINITY
        row = None
        for i in range(n):
            p = psend[i]
            if p == INFINITY:
                continue
            d = closed[i][j]
            if d == INFINITY:
                continue
            v = p + d
            if v < horizon:
                horizon = v
        del row
        if until is not None:
            if horizon >= until:
                windows.append((until, True))
            else:
                windows.append((horizon, False))
        elif horizon != INFINITY:
            windows.append((horizon, False))
        elif psend[j] != INFINITY:
            # Unreachable but busy: free-run one floor past its own
            # next event (progress without a target to clamp to).
            windows.append((psend[j] + matrix.floor, False))
        else:
            windows.append(None)
    return windows


def fault_barrier(
    windows: Sequence[Optional[Tuple[float, bool]]]
) -> float:
    """The horizon up to which fault-timeline occurrences are applied
    before an epoch dispatches: the epoch's minimum granted horizon,
    which is also the barrier time both executors report to barrier
    hooks.

    Every participant — the serial epoch loop and every multiprocess
    worker — evaluates this on the *same* window list (workers receive
    the full per-domain list, not just their slice), so barrier-aligned
    fault application happens at identical points everywhere. Occurrences
    between this barrier and a wider domain's horizon wait one epoch;
    that lag is itself deterministic, which is what the digest contract
    requires.
    """
    barrier = INFINITY
    for window in windows:
        if window is not None and window[0] < barrier:
            barrier = window[0]
    return barrier


class PartitionedSimulator:
    """N event domains advancing under an epoch barrier (serial
    executor).

    Implements the same surface the classic
    :class:`~repro.engine.simulator.Simulator` exposes — ``now``,
    ``run(until)``, ``schedule``/``at``/``post``, ``stop``,
    ``events_dispatched`` — so the emulation layer and the Scenario
    facade treat either interchangeably. Direct ``schedule``/``at``
    calls land on domain 0 (the convention for app-level/global
    events); components bound to a domain schedule on their own
    domain's clock.
    """

    def __init__(
        self,
        num_domains: int,
        lookahead: Optional[float] = None,
        matrix: Optional[LookaheadMatrix] = None,
    ):
        if num_domains < 1:
            raise SimulationError("need at least one domain")
        if matrix is None:
            if lookahead is None:
                raise SimulationError(
                    "need a lookahead scalar or a LookaheadMatrix"
                )
            matrix = LookaheadMatrix.uniform(num_domains, lookahead)
        elif matrix.num_domains != num_domains:
            raise SimulationError(
                f"matrix covers {matrix.num_domains} domains, "
                f"simulator has {num_domains}"
            )
        self.matrix = matrix
        self.domains: List[EventDomain] = [
            EventDomain(domain_id=index) for index in range(num_domains)
        ]
        self.router = DomainRouter(num_domains)
        self.epochs = 0
        #: Optional barrier hook ``fn(epoch_index, horizon)`` invoked
        #: after every completed epoch. Resilience uses it for budget
        #: checks and checkpoints; it must not schedule events (it runs
        #: between epochs, outside any domain's dispatch loop), and the
        #: epoch structure is identical whether or not it is set.
        self.on_epoch: Optional[Callable[[int, float], None]] = None
        #: Barrier-aligned fault application hook ``fn(apply_until)``,
        #: installed by the sanctioned FaultApplier. Invoked with each
        #: epoch's minimum grant horizon *before* the epoch's windows
        #: dispatch, so link mutations land between epochs at a point
        #: both executors (this serial loop and every multiprocess
        #: worker, which receives the same window list) compute
        #: identically — the digest-equality contract for dynamic
        #: topology. See :func:`fault_barrier`.
        self.fault_hook: Optional[Callable[[float], None]] = None
        self._running = False
        self._stopped = False

    # -- facade surface --------------------------------------------------

    @property
    def lookahead(self) -> float:
        """The *effective* (tightest finite) pairwise bound.

        Kept as a scalar for callers that predate the matrix — obs
        gauges, reprs, back-compat tests — but the synchronizer itself
        always plans with the full matrix; see
        :attr:`matrix` for the per-pair breakdown.
        """
        return self.matrix.effective

    def install_lookahead(self, matrix: LookaheadMatrix) -> None:
        """Replace the synchronization matrix (bind-time upgrade).

        The facade constructs the simulator before the emulation knows
        its topology, so it starts with the conservative uniform
        floor; once binding derives the real cross-domain relations,
        the emulation installs the derived matrix here. Refused after
        any event has dispatched — windows already granted under the
        old matrix are not revisited.
        """
        if matrix.num_domains != self.num_domains:
            raise SimulationError(
                f"matrix covers {matrix.num_domains} domains, "
                f"simulator has {self.num_domains}"
            )
        if self._running or self.events_dispatched:
            raise SimulationError(
                "cannot install a lookahead matrix after execution "
                "began"
            )
        self.matrix = matrix

    @property
    def num_domains(self) -> int:
        return len(self.domains)

    @property
    def now(self) -> float:
        """The barrier clock: no domain is behind this time."""
        return min(domain._now for domain in self.domains)

    # Some hot paths read ``sim._now`` directly; keep the alias honest.
    @property
    def _now(self) -> float:
        return self.now

    @property
    def events_dispatched(self) -> int:
        return sum(domain._dispatched for domain in self.domains)

    def events_by_domain(self) -> List[int]:
        """Per-domain dispatch counts (load-imbalance attribution)."""
        return [domain._dispatched for domain in self.domains]

    @property
    def pending(self) -> int:
        return sum(domain.pending for domain in self.domains) + len(
            self.router._pending
        )

    @property
    def on_dispatch(self) -> Optional[Callable]:
        return self.domains[0].on_dispatch

    @on_dispatch.setter
    def on_dispatch(self, hook: Optional[Callable]) -> None:
        # Broadcast: a plain hook observes every domain's events. The
        # sanitizer installs per-domain probes itself for composable
        # digests; this setter is the compatibility path.
        for domain in self.domains:
            domain.on_dispatch = hook

    def schedule(self, delay: float, fn: Callable, *args: Any):
        return self.domains[0].schedule(delay, fn, *args)

    def at(self, time: float, fn: Callable, *args: Any):
        return self.domains[0].at(time, fn, *args)

    def post(self, time: float, fn: Callable, *args: Any) -> None:
        self.domains[0].post(time, fn, *args)

    def call_soon(self, fn: Callable, *args: Any):
        return self.domains[0].call_soon(fn, *args)

    def stop(self) -> None:
        """Halt after the current event, no later than the next barrier.

        The epoch loop checks the flag between barriers, but coalesced
        windows can span many events, so the currently dispatching
        domain is stopped too — it returns after the event that called
        ``stop``, keeping its clock at that event's time (see
        :meth:`EventDomain.run_until`). Domains that have not yet run
        their window this epoch still complete it: each window entry
        clears the per-domain flag, so the stop lands exactly at the
        epoch boundary for everyone else.
        """
        self._stopped = True
        for domain in self.domains:
            domain.stop()

    def fast_forward(
        self,
        until: float,
        domain_ids: Optional[Iterable[int]] = None,
        strict: bool = True,
    ) -> None:
        """Align idle domain clocks with ``until`` (barrier-side API).

        This is the sanctioned way for executors — the serial epoch
        loop, the multiprocess workers at ``finish``, and the parent's
        stat merge — to advance drained domains to the run target
        without touching ``EventDomain`` internals (which the DOM002 /
        EPO001 static rules forbid outside this module). ``domain_ids``
        restricts the sweep to the domains a worker owns; the default
        covers all of them. Delegates to
        :meth:`EventDomain.fast_forward`, which refuses to skip over
        pending work.
        """
        domains = (
            self.domains
            if domain_ids is None
            else [self.domains[d] for d in domain_ids]
        )
        for domain in domains:
            domain.fast_forward(until, strict=strict)

    # -- the epoch loop ---------------------------------------------------

    def next_event_time(self) -> float:
        """Earliest pending work across heaps and undelivered mail."""
        next_min = self.router.min_pending_time()
        for domain in self.domains:
            t = domain.next_event_time()
            if t < next_min:
                next_min = t
        return next_min

    def run(self, until: Optional[float] = None) -> float:
        """Advance all domains to ``until`` (or until drained) in
        lookahead-bounded epochs with deterministic mail delivery."""
        if self._running:
            raise SimulationError("simulator is already running")
        if until is not None and until < self.now:
            raise SimulationError(
                f"cannot run until t={until}, already at t={self.now}"
            )
        self._running = True
        self._stopped = False
        domains = self.domains
        router = self.router
        matrix = self.matrix
        try:
            while not self._stopped:
                router.flush(domains)
                next_times = [
                    domain.next_event_time() for domain in domains
                ]
                windows = epoch_windows(next_times, matrix, until)
                if windows is None:
                    break
                barrier = fault_barrier(windows)
                if self.fault_hook is not None:
                    self.fault_hook(barrier)
                for domain, window in zip(domains, windows):
                    if window is not None:
                        domain.run_window(*window)
                self.epochs += 1
                if self.on_epoch is not None:
                    self.on_epoch(self.epochs - 1, barrier)
        finally:
            self._running = False
        if until is not None and not self._stopped:
            # Natural drain: align every idle clock with the target.
            self.fast_forward(until)
        return self.now

    def __repr__(self) -> str:
        matrix = self.matrix
        if matrix.effective == INFINITY:
            bounds = "inf"
        elif matrix.effective == matrix.widest:
            bounds = f"{matrix.effective:g}s"
        else:
            bounds = f"{matrix.effective:g}..{matrix.widest:g}s"
        return (
            f"<PartitionedSimulator domains={self.num_domains} "
            f"lookahead={bounds} epochs={self.epochs}>"
        )
