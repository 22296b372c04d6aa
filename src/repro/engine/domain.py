"""The event-domain kernel: one clock, one heap, one seq counter.

An :class:`EventDomain` is the unit of partitioned execution. The
classic single-kernel :class:`~repro.engine.simulator.Simulator` is an
EventDomain with ``domain_id == 0`` and nothing else running; the
partitioned engine (:mod:`repro.engine.sync`) owns one domain per
emulated core node and advances them in lookahead-bounded epochs,
exchanging cross-domain work through mailboxes.

Everything that used to live on ``Simulator`` lives here unchanged —
the tuple heap, the allocation-free ``post`` path — so the
single-domain engine dispatches a byte-identical event stream to the
pre-partitioning kernel. There is one dispatch loop,
:meth:`EventDomain._dispatch`; :meth:`~EventDomain.run`,
:meth:`~EventDomain.run_until` and :meth:`~EventDomain.run_window` are
thin wrappers over it, and :meth:`~EventDomain.step` is the
one-event reference it must match.
"""

from __future__ import annotations

import functools
import hashlib
import heapq
import struct
from typing import Any, Callable, Dict, List, Optional, Tuple

INFINITY = float("inf")

_PACK_EVENT = struct.Struct("<dq").pack


class SimulationError(RuntimeError):
    """Raised for misuse of the simulation kernel (e.g. scheduling in
    the past or running a simulator that is already running)."""


class Event:
    """A scheduled callback.

    Returned by :meth:`EventDomain.schedule` and :meth:`EventDomain.at`
    so the caller can cancel the callback before it fires. Cancelled
    events stay in the heap but are skipped when popped; this makes
    cancellation O(1), which matters for TCP retransmission timers
    that are cancelled on nearly every ACK.

    The heap stores ``(time, seq, event)`` tuples rather than the
    events: tuple comparison runs in C, and heap sift compares are the
    single hottest operation of a large run. Events themselves define
    no ordering — the ``(time, seq)`` tuple prefix is the one and only
    ordering of the kernel (see ``tests/engine/test_simulator.py``).
    """

    __slots__ = ("time", "seq", "fn", "args", "cancelled")

    def __init__(self, time: float, seq: int, fn: Callable, args: tuple):
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False

    def cancel(self) -> None:
        """Prevent the callback from firing. Idempotent."""
        self.cancelled = True
        # Drop references so cancelled timers don't pin large objects
        # (packets, sockets) until the heap drains past them.
        self.fn = None
        self.args = ()

    def __repr__(self) -> str:
        if self.cancelled:
            state = "cancelled"
        elif self.fn is None:
            # Dispatch clears fn/args so fired events don't pin their
            # arguments; such an event is spent, not pending.
            state = "dispatched"
        else:
            state = "pending"
        return f"<Event t={self.time:.6f} {state}>"


class EventDomain:
    """A discrete-event kernel with a virtual clock.

    The clock starts at 0.0 and only moves forward, jumping to the
    timestamp of each event as it is dispatched. All times are float
    seconds.
    """

    def __init__(self, domain_id: int = 0) -> None:
        #: Index of this domain within a partitioned engine (0 for the
        #: classic single-kernel Simulator).
        self.domain_id = domain_id
        self._now = 0.0
        self._heap: list[Tuple[float, int, Event]] = []
        self._seq = 0
        self._running = False
        self._stopped = False
        self._dispatched = 0
        #: Optional tracing hook: called as ``on_dispatch(event, fn)``
        #: immediately before each event fires (the sanitizer's probe
        #: point). ``fn`` is passed separately because dispatch clears
        #: ``event.fn``. The dispatch loop reads the hook once per
        #: call, so installing one *during* a run takes effect at the
        #: next :meth:`run`/:meth:`run_until`/:meth:`step`.
        self.on_dispatch: Optional[Callable[[Event, Callable], None]] = None
        #: Streaming event digest, folded inline by the dispatch loop
        #: when armed (:meth:`enable_digest`). None (the default) costs
        #: one local test per event.
        self._digest = None
        self._callsite_cache: dict = {}
        #: Streaming outcome digest: a SHA-256 the emulation core folds
        #: one record per packet outcome into (exit, drop, unroutable;
        #: :mod:`repro.core.monitor`), armed with the event digest.
        #: None (the default) costs one test per outcome.
        self.outcomes = None
        #: The fault timeline :meth:`run` stops at (a
        #: :class:`~repro.core.faults.FaultApplier`, installed by it):
        #: ``next_time()`` and ``apply_until(t)``. None runs straight.
        self.fault_timeline = None

    def enable_digest(self) -> None:
        """Arm the streaming event digest for subsequent runs.

        Folds ``(time, seq, callsite)`` of every dispatched event into
        a SHA-256 — the exact byte stream the sanitizer's per-domain
        probe (:mod:`repro.check.sanitize`) hashes, so the result is
        comparable with sanitize digests (tests pin the byte
        equality). Like :attr:`on_dispatch`, arming mid-run takes
        effect at the next :meth:`run`/:meth:`run_until`/:meth:`step`.
        """
        self._digest = hashlib.sha256()
        self._callsite_cache = {}
        self.enable_outcome_digest()

    def enable_outcome_digest(self) -> None:
        """Arm the outcome digest alone (:meth:`enable_digest` arms it
        too; the sanitizer hashes events through its own probe)."""
        self.outcomes = hashlib.sha256()

    def digest_hexdigest(self) -> Optional[str]:
        """Hex digest of the events dispatched since
        :meth:`enable_digest`, or None when never armed."""
        digest = self._digest
        return None if digest is None else digest.hexdigest()

    def outcome_hexdigest(self) -> Optional[str]:
        """Hex digest of the packet outcomes recorded since the
        outcome digest was armed, or None when never armed."""
        outcomes = self.outcomes
        return None if outcomes is None else outcomes.hexdigest()

    def _callsite_bytes(self, fn: Callable) -> bytes:
        """Encoded ``module.qualname`` for ``fn``, memoized.

        Must produce the same bytes as
        :func:`repro.check.sanitize._callsite` (partials unwrapped,
        ``__func__`` collapsed) — a test pins the equivalence. The
        memo is keyed on the unwrapped function object: bound methods
        are recreated per event but share one underlying function, so
        the per-event cost is one ``__func__`` fetch and a dict hit.
        """
        while isinstance(fn, functools.partial):
            fn = fn.func
        fn = getattr(fn, "__func__", fn)
        cached = self._callsite_cache.get(fn)
        if cached is None:
            module = getattr(fn, "__module__", None) or "?"
            qualname = getattr(fn, "__qualname__", None)
            if qualname is None:
                # Exotic callable: repr is per-object, so the bytes
                # are only valid for this exact object — which is
                # precisely what the object-keyed memo stores.
                qualname = repr(fn)
            cached = f"{module}.{qualname}".encode()
            try:
                self._callsite_cache[fn] = cached
            except TypeError:  # unhashable callable: recompute per event
                pass
        return cached

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    @property
    def events_dispatched(self) -> int:
        """Total number of events fired so far (for instrumentation)."""
        return self._dispatched

    @property
    def pending(self) -> int:
        """Number of events still in the heap (including cancelled)."""
        return len(self._heap)

    def schedule(self, delay: float, fn: Callable, *args: Any) -> Event:
        """Run ``fn(*args)`` after ``delay`` simulated seconds."""
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay}s in the past")
        return self.at(self._now + delay, fn, *args)

    def at(self, time: float, fn: Callable, *args: Any) -> Event:
        """Run ``fn(*args)`` at absolute virtual time ``time``."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at t={time} before now={self._now}"
            )
        self._seq = seq = self._seq + 1
        event = Event(time, seq, fn, args)
        heapq.heappush(self._heap, (time, seq, event))
        return event

    def post(self, time: float, fn: Callable, *args: Any) -> None:
        """Like :meth:`at`, but fire-and-forget: no :class:`Event`
        handle is returned and the callback cannot be cancelled.

        The heap entry is a bare ``(time, seq, None, fn, args)`` tuple
        — no Event allocation. Physical-wire delivery callbacks (one
        per transmitted packet, never cancelled) are the intended
        users; they dominate the heap of a saturated run. Sequence
        numbers come from the same counter as :meth:`at`, so traces
        are identical either way.
        """
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at t={time} before now={self._now}"
            )
        self._seq = seq = self._seq + 1
        heapq.heappush(self._heap, (time, seq, None, fn, args))

    def call_soon(self, fn: Callable, *args: Any) -> Event:
        """Run ``fn(*args)`` at the current time, after pending events
        already scheduled for this instant."""
        return self.at(self._now, fn, *args)

    def stop(self) -> None:
        """Ask a running :meth:`run` to return after the current event."""
        self._stopped = True

    def next_event_time(self) -> float:
        """Timestamp of the earliest live event, or ``inf`` when the
        heap holds nothing dispatchable.

        Cancelled/spent entries encountered at the top are discarded
        as a side effect, so repeated peeks stay O(1) amortized. This
        is the epoch synchronizer's lower-bound query.
        """
        heap = self._heap
        while heap:
            entry = heap[0]
            event = entry[2]
            if event is not None and event.fn is None:
                heapq.heappop(heap)
                continue
            return entry[0]
        return INFINITY

    def snapshot(self) -> dict:
        """Cheap, picklable view of kernel progress at a barrier.

        Used by resilience checkpoints to record (and later verify)
        where a domain stood: clock, dispatch count, sequence counter,
        and heap occupancy. This is *progress* state, not full kernel
        state — resume works by deterministic replay, not by restoring
        heaps (live events hold unpicklable closures).
        """
        return {
            "domain": self.domain_id,
            "now": self._now,
            "dispatched": self._dispatched,
            "seq": self._seq,
            "pending": len(self._heap),
        }

    def fast_forward(self, until: float) -> None:
        """Advance an *idle* clock to ``until`` (barrier-side use only).

        Raises if events remain at or before ``until``: fast-forward
        aligns drained domains with a run target, it never skips work.
        """
        if self.next_event_time() <= until:
            raise SimulationError(
                f"domain {self.domain_id} still has events at or before "
                f"t={until}; cannot fast-forward over pending work"
            )
        if self._now < until:
            self._now = float(until)

    def step(self) -> bool:
        """Dispatch the single next non-cancelled event.

        The reference for dispatch semantics: one pop-check-fire cycle
        with every rare-path branch (clock check, hook, digest) tested
        in place. :meth:`_dispatch` must stay observationally
        identical to repeating it — tests compare the two.

        Returns False when the heap is exhausted.
        """
        heap = self._heap
        while heap:
            entry = heapq.heappop(heap)
            time = entry[0]
            event = entry[2]
            if event is None:  # anonymous fire-and-forget (see post())
                fn = entry[3]
                args = entry[4]
            else:
                fn = event.fn
                if fn is None:  # cancelled, or spent by a previous dispatch
                    continue
                args = event.args
                event.fn = None
                event.args = ()
            if time < self._now:
                raise SimulationError(
                    f"clock would move backwards: event at t={time} "
                    f"but now={self._now}"
                )
            self._now = time
            self._dispatched += 1
            hook = self.on_dispatch
            if hook is not None:
                if event is None:
                    event = Event(time, entry[1], None, ())
                hook(event, fn)
            digest = self._digest
            if digest is not None:
                digest.update(_PACK_EVENT(time, entry[1]))
                digest.update(self._callsite_bytes(fn))
            fn(*args)
            return True
        return False

    def _dispatch(self, limit: float, inclusive: bool) -> int:
        """The dispatch loop: fire every live event with ``time <
        limit`` (``<= limit`` when ``inclusive``) until the window is
        exhausted or :meth:`stop` is called; returns the count fired.

        A window that ends without a stop leaves the clock exactly at
        a finite ``limit``. A stopped one keeps the clock at the last
        dispatched event — fast-forwarding past still-pending events
        would let the next window move the clock backwards.

        The :attr:`on_dispatch` hook and the armed digest are read
        once per call into locals and tested per event. The digest
        fold feeds ``(time, seq, callsite)`` bytes into a chunk list
        joined into the hash every 2048 entries — SHA-256 is
        stream-equivalent under concatenation, so the result equals
        :meth:`step`'s per-event fold — and every exit path (drain,
        stop, limit, a raising callback) flushes the tail.
        """
        if self._running:
            raise SimulationError("domain is already running")
        self._running = True
        self._stopped = False
        heap = self._heap
        pop = heapq.heappop
        now = self._now
        dispatched = 0
        hook = self.on_dispatch
        digest = self._digest
        pack = _PACK_EVENT
        callsite_bytes = self._callsite_bytes
        chunks: list = []
        append = chunks.append
        try:
            while heap and not self._stopped:
                entry = heap[0]
                event = entry[2]
                if event is None:  # anonymous entry (see post())
                    fn = entry[3]
                    args = entry[4]
                else:
                    fn = event.fn
                    if fn is None:  # cancelled or spent: discard
                        pop(heap)
                        continue
                    args = event.args
                time = entry[0]
                if time >= limit and (time > limit or not inclusive):
                    break
                if time < now:
                    raise SimulationError(
                        f"clock would move backwards: event at "
                        f"t={time} but now={now}"
                    )
                pop(heap)
                self._now = now = time
                dispatched += 1
                if event is not None:
                    event.fn = None
                    event.args = ()
                if hook is not None:
                    # Anonymous entries get a synthesized handle with
                    # the same (time, seq) identity.
                    hook(event or Event(time, entry[1], None, ()), fn)
                if digest is not None:
                    append(pack(time, entry[1]))
                    append(callsite_bytes(fn))
                    if len(chunks) >= 2048:
                        digest.update(b"".join(chunks))
                        chunks.clear()
                fn(*args)
        finally:
            if chunks:
                digest.update(b"".join(chunks))
            self._running = False
            self._dispatched += dispatched
        if limit != INFINITY and not self._stopped and self._now < limit:
            self._now = limit
        return dispatched

    def run(self, until: Optional[float] = None) -> float:
        """Dispatch events until the heap is empty, the clock would
        pass ``until``, or :meth:`stop` is called; returns the final
        clock value.

        Events at exactly ``until`` fire. If the run is not stopped,
        the clock is left exactly at ``until`` and a subsequent
        ``run`` continues from there.

        Each :attr:`fault_timeline` occurrence at a time ``t`` no later
        than ``until`` is applied with the clock at ``t``: after every
        event before ``t`` and before any event at or after it.
        """
        if until is not None and until < self._now:
            raise SimulationError(
                f"cannot run until t={until}, already at t={self._now}"
            )
        limit = INFINITY if until is None else until
        timeline = self.fault_timeline
        if timeline is not None:
            due = timeline.next_time()
            while due != INFINITY and due <= limit:
                self._dispatch(due, False)
                if self._stopped:
                    return self._now
                timeline.apply_until(due)
                due = timeline.next_time()
        self._dispatch(limit, True)
        return self._now

    # ------------------------------------------------------------------
    # Epoch execution (the partitioned engine's entry point)
    # ------------------------------------------------------------------

    def run_until(self, horizon: float, inclusive: bool = False) -> int:
        """Dispatch every event with ``time < horizon`` (``<= horizon``
        when ``inclusive``), then advance the clock to ``horizon``.

        This is one epoch of partitioned execution: the synchronizer
        guarantees no cross-domain message can arrive before
        ``horizon``, so everything strictly inside the window is safe
        to dispatch without hearing from other domains. The clock
        lands exactly on ``horizon`` — epochs tile time, and a later
        message timed at ``horizon`` or beyond must never read as "in
        the past".

        :meth:`stop` called from inside a dispatched event halts the
        window after that event, leaving the clock at the event's time
        (not the horizon) so the next window resumes without skipping
        still-pending work. Coalesced windows can span many events, so
        waiting for the window to drain would defer a stop
        arbitrarily far.

        Returns the number of events dispatched this epoch.
        """
        if horizon < self._now:
            raise SimulationError(
                f"epoch horizon t={horizon} is before now={self._now}"
            )
        return self._dispatch(horizon, inclusive)

    def run_window(self, horizon: float, inclusive: bool = False) -> int:
        """Run one granted epoch window, tolerating re-grants.

        Per-pair coalescing can hand a domain the same (or an earlier)
        horizon twice — e.g. the final ``(until, True)`` barrier is
        re-issued when mail lands exactly at the target. Re-running an
        inclusive window at ``now == horizon`` dispatches only events
        injected since the previous grant (earlier ones were consumed
        and the clock never moves backwards), so the executors may
        call this without tracking which horizons a domain has already
        seen. A horizon strictly below ``now`` clamps to ``now``.
        """
        if horizon < self._now:
            horizon = self._now
        return self.run_until(horizon, inclusive)


# ----------------------------------------------------------------------
# Run identity: per-domain digests and their composition
# ----------------------------------------------------------------------

def compose_domain_digests(digests) -> str:
    """Fold per-domain digests into one, sorted by domain id.

    The composition is executor-independent: a serial partitioned run
    and a multiprocess run (any worker count) of the same scenario
    produce the same per-domain digests, hence the same composition.
    """
    composed = hashlib.sha256()
    for domain_id in sorted(digests):
        composed.update(f"{domain_id}:{digests[domain_id]}\n".encode())
    return composed.hexdigest()


def diff_domain_digests(expected, actual) -> List[int]:
    """Domain ids whose digests disagree (or exist on one side only).

    The recovery digest compare: the resilience supervisor uses this
    to decide whether a replayed worker reproduced its pre-crash event
    stream, and ``--resume`` uses it to verify a replayed prefix
    against a checkpoint. Values are hex digest strings keyed by
    domain id.
    """
    ids = sorted(set(expected) | set(actual))
    return [d for d in ids if expected.get(d) != actual.get(d)]


def run_digest(digests: Dict[int, str]) -> str:
    """The digest of a whole run from ``{domain_id: hexdigest}``: a
    single domain's own digest (what ``repro-net sanitize`` hashes for
    an unpartitioned run), else :func:`compose_domain_digests`."""
    if len(digests) == 1:
        (digest,) = digests.values()
        return digest
    return compose_domain_digests(digests)
