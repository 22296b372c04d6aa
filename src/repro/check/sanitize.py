"""Runtime simulation sanitizer: double-run digest comparison.

The static pass (:mod:`repro.check.lint`) catches the *patterns* that
break determinism; this module catches the *fact* of it. A
:class:`SimSanitizer` hooks one :class:`DomainProbe` on each event
domain of a simulator and records, per fired event, a
:class:`DispatchRecord` of ``(virtual time, heap sequence number,
callsite)`` folded into that domain's streaming SHA-256. Running the
same seeded scenario twice and comparing digests answers the only
question that matters — "same seed, same trace?" — and when the
answer is no,
:func:`compare_runs` diffs the two record streams to pinpoint the
**first divergent event** (and whether the divergence is merely a
same-timestamp tie-order flip, the classic symptom of iterating an
unordered container into the heap).

Optionally the sanitizer freezes :class:`~repro.net.packet.Packet`
instances once a pipe accepts them, so post-enqueue mutation (the
paper's by-reference descriptors make this an easy bug) raises
immediately at the write site instead of silently corrupting a later
hop.
"""

from __future__ import annotations

import functools
import hashlib
import struct
from dataclasses import dataclass, field
from typing import Any, Callable, List, NamedTuple, Optional

from repro.engine.domain import (  # noqa: F401
    compose_domain_digests,
    diff_domain_digests,
    run_digest,
)
from repro.engine.simulator import Event, Simulator


class DispatchRecord(NamedTuple):
    """One dispatched event, as the digest sees it."""

    time: float
    seq: int
    callsite: str

    def __str__(self) -> str:
        return f"t={self.time:.9f} seq={self.seq} {self.callsite}"


def _callsite(fn: Callable) -> str:
    """A stable name for an event callback: ``module.qualname``."""
    while isinstance(fn, functools.partial):
        fn = fn.func
    fn = getattr(fn, "__func__", fn)
    module = getattr(fn, "__module__", None) or "?"
    qualname = getattr(fn, "__qualname__", None) or repr(fn)
    return f"{module}.{qualname}"


class DomainProbe:
    """A streaming per-domain digest: one :class:`DomainProbe` hooks
    one :class:`~repro.engine.domain.EventDomain`.

    The probe folds every dispatch into its own SHA-256 — never into a
    shared one — so a partitioned run's identity is a *set* of
    per-domain digests that can be composed
    (:func:`compose_domain_digests`) and compared across executors:
    the serial epoch loop and the multiprocess workers dispatch each
    domain's events identically, and per-domain digests are blind to
    how domains were interleaved around them.

    Attaching also arms the domain's outcome digest
    (:meth:`~repro.engine.domain.EventDomain.enable_outcome_digest`),
    which the probe keeps readable after :meth:`detach`.
    """

    def __init__(self, domain_id: int):
        self.domain_id = domain_id
        self.count = 0
        self._hash = hashlib.sha256()
        self.records: List[DispatchRecord] = []
        self._domain = None
        self._previous = None
        self._outcomes = None

    def attach(self, domain) -> "DomainProbe":
        previous = domain.on_dispatch

        def hook(event: Event, fn: Callable) -> None:
            if previous is not None:
                previous(event, fn)
            self.observe(event, fn)

        domain.on_dispatch = hook
        domain.enable_outcome_digest()
        self._domain = domain
        self._previous = previous
        self._outcomes = domain.outcomes
        return self

    def detach(self) -> None:
        """Restore the hook this probe chained at :meth:`attach`."""
        if self._domain is not None:
            self._domain.on_dispatch = self._previous
            self._domain = self._previous = None

    def observe(self, event: Event, fn: Callable) -> None:
        callsite = _callsite(fn)
        self._hash.update(struct.pack("<dq", event.time, event.seq))
        self._hash.update(callsite.encode())
        self.records.append(DispatchRecord(event.time, event.seq, callsite))
        self.count += 1

    def hexdigest(self) -> str:
        return self._hash.hexdigest()

    def outcome_hexdigest(self) -> Optional[str]:
        outcomes = self._outcomes
        return None if outcomes is None else outcomes.hexdigest()


class SimSanitizer:
    """Record a digest of every dispatched event on one simulator.

    >>> sim = Simulator()
    >>> sanitizer = SimSanitizer()
    >>> sanitizer.attach(sim)
    >>> # ... schedule and run ...
    >>> sanitizer.digest  # doctest: +SKIP
    'e3b0c442...'
    """

    def __init__(self, freeze_packets: bool = False):
        self._sim: Optional[Simulator] = None
        self._probes: List[DomainProbe] = []
        self._freeze_packets = freeze_packets
        self._frozen_ids: set = set()
        self._freeze_undo: Optional[Callable[[], None]] = None

    # -- lifecycle ------------------------------------------------------

    def attach(self, sim) -> "SimSanitizer":
        """Hook one :class:`DomainProbe` on every event domain of
        ``sim`` (chaining with any existing hook): the domains of a
        partitioned simulator, or the simulator itself. The digest is
        :func:`~repro.engine.domain.run_digest` of the per-domain
        digests, so a partitioned identity is comparable with a
        multiprocess run of the same scenario.
        """
        if self._sim is not None:
            raise RuntimeError("sanitizer is already attached")
        self._sim = sim
        domains = getattr(sim, "domains", None) or [sim]
        self._probes = [
            DomainProbe(domain.domain_id).attach(domain) for domain in domains
        ]
        if self._freeze_packets:
            self._install_freeze()
        return self

    def detach(self) -> None:
        """Remove hooks; recorded data stays readable."""
        if self._sim is not None:
            for probe in self._probes:
                probe.detach()
            self._sim = None
        if self._freeze_undo is not None:
            self._freeze_undo()
            self._freeze_undo = None

    # -- recording ------------------------------------------------------

    @property
    def records(self) -> List[DispatchRecord]:
        """Every recorded dispatch, domain by domain in id order."""
        return [record for probe in self._probes for record in probe.records]

    @property
    def dispatched(self) -> int:
        return sum(probe.count for probe in self._probes)

    def domain_digests(self) -> dict:
        """``{domain_id: hexdigest}`` of the probed domains."""
        return {probe.domain_id: probe.hexdigest() for probe in self._probes}

    def domain_counts(self) -> dict:
        """``{domain_id: events}`` of the probed domains."""
        return {probe.domain_id: probe.count for probe in self._probes}

    @property
    def digest(self) -> str:
        """The run's digest (hex): one domain's own digest, or the
        composition of the per-domain digests (:func:`run_digest`)."""
        return run_digest(self.domain_digests())

    @property
    def outcome_digest(self) -> str:
        """The run's outcome digest, composed like :attr:`digest`."""
        return run_digest(
            {probe.domain_id: probe.outcome_hexdigest() for probe in self._probes}
        )

    # -- packet freezing -------------------------------------------------

    def freeze(self, packet) -> None:
        """Explicitly freeze one packet (automatic after pipe
        acceptance when constructed with ``freeze_packets=True``).

        Keyed on the packet's monotonic ``id`` field, not ``id()`` —
        CPython reuses addresses, which would freeze unrelated new
        packets allocated where a dead frozen one lived."""
        self._frozen_ids.add(packet.id)

    def _install_freeze(self) -> None:
        from repro.core.pipe import Pipe
        from repro.net.packet import Packet

        frozen = self._frozen_ids
        original_arrival = Pipe.arrival

        def arrival(pipe, descriptor, now, ideal_now, rng=None):
            accepted = original_arrival(pipe, descriptor, now, ideal_now, rng)
            if accepted:
                frozen.add(descriptor.packet.id)
            return accepted

        def guarded_setattr(packet, name, value):
            if name != "id" and getattr(packet, "id", None) in frozen:
                raise AttributeError(
                    f"sanitizer: write to {name!r} on {packet!r} after it "
                    f"was enqueued (packets move by reference; mutating "
                    f"one in flight corrupts every later hop)"
                )
            object.__setattr__(packet, name, value)

        Pipe.arrival = arrival
        Packet.__setattr__ = guarded_setattr  # type: ignore[method-assign]

        def undo() -> None:
            Pipe.arrival = original_arrival
            del Packet.__setattr__

        self._freeze_undo = undo


# ----------------------------------------------------------------------
# Double-run comparison
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Divergence:
    """The first point where two same-seed traces disagree."""

    index: int
    first: Optional[DispatchRecord]
    second: Optional[DispatchRecord]
    #: True when the divergence is a reordering of events sharing one
    #: timestamp (both runs dispatch the same multiset at that time).
    tie_order_only: bool

    @property
    def time(self) -> Optional[float]:
        record = self.first or self.second
        return record.time if record else None

    def describe(self) -> str:
        if self.tie_order_only:
            kind = "same-timestamp events changed relative order"
        else:
            kind = "traces diverge"
        lines = [f"event #{self.index}: {kind}"]
        lines.append(f"  run 1: {self.first if self.first else '<trace ended>'}")
        lines.append(f"  run 2: {self.second if self.second else '<trace ended>'}")
        return "\n".join(lines)


@dataclass
class SanitizeResult:
    """Outcome of :func:`compare_runs` for one seed."""

    seed: Optional[int]
    digests: List[str] = field(default_factory=list)
    events: List[int] = field(default_factory=list)
    divergence: Optional[Divergence] = None
    #: Outcome digests, one per run (:mod:`repro.core.monitor`).
    outcomes: List[str] = field(default_factory=list)

    @property
    def identical(self) -> bool:
        return len(set(self.digests)) <= 1 and len(set(self.outcomes)) <= 1

    def summary(self) -> str:
        label = "all runs" if self.seed is None else f"seed {self.seed}"
        if self.identical:
            return (
                f"{label}: OK — {len(self.digests)} runs, "
                f"{self.events[0] if self.events else 0} events, "
                f"digest {self.digests[0][:16] if self.digests else '-'}, "
                f"outcome {self.outcomes[0][:16] if self.outcomes else '-'}"
            )
        head = f"{label}: NONDETERMINISTIC — digests differ"
        if self.divergence is not None:
            head += "\n" + self.divergence.describe()
        return head


def _first_divergence(
    a: List[DispatchRecord], b: List[DispatchRecord]
) -> Optional[Divergence]:
    limit = min(len(a), len(b))
    for index in range(limit):
        if a[index] != b[index]:
            return Divergence(
                index, a[index], b[index],
                tie_order_only=_is_tie_flip(a, b, index),
            )
    if len(a) != len(b):
        index = limit
        return Divergence(
            index,
            a[index] if index < len(a) else None,
            b[index] if index < len(b) else None,
            tie_order_only=False,
        )
    return None


def _is_tie_flip(
    a: List[DispatchRecord], b: List[DispatchRecord], index: int
) -> bool:
    """Do both runs dispatch the same multiset of events at the
    divergent timestamp, just in a different order?

    Sequence numbers are excluded from the comparison: the heap
    assigns them in insertion order, so an insertion-order flip (the
    very bug this classifies) re-pairs seq with callsite and would
    otherwise make the multisets look genuinely different."""
    t_a, t_b = a[index].time, b[index].time
    if t_a != t_b:
        return False

    def group(records: List[DispatchRecord], time: float) -> List[tuple]:
        start = index
        while start > 0 and records[start - 1].time == time:
            start -= 1
        stop = index
        while stop < len(records) and records[stop].time == time:
            stop += 1
        return sorted((r.time, r.callsite) for r in records[start:stop])

    return group(a, t_a) == group(b, t_b)


def compare_runs(
    run_once: Callable[[SimSanitizer], Any],
    seed: Optional[int] = None,
    runs: int = 2,
    freeze_packets: bool = False,
) -> SanitizeResult:
    """Execute ``run_once`` ``runs`` times, each with a fresh
    :class:`SimSanitizer`, and diff the recorded traces.

    ``run_once(sanitizer)`` must construct the *entire* experiment
    from scratch (topology, emulation, traffic) and call
    ``sanitizer.attach(sim)`` before driving the clock — state shared
    across calls would itself be a source of coupling.
    """
    if runs < 2:
        raise ValueError(f"need at least 2 runs to compare, got {runs}")
    result = SanitizeResult(seed=seed)
    traces: List[List[DispatchRecord]] = []
    for _ in range(runs):
        sanitizer = SimSanitizer(freeze_packets=freeze_packets)
        try:
            run_once(sanitizer)
        finally:
            sanitizer.detach()
        result.digests.append(sanitizer.digest)
        result.outcomes.append(sanitizer.outcome_digest)
        result.events.append(sanitizer.dispatched)
        traces.append(sanitizer.records)
    if not result.identical:
        for trace in traces[1:]:
            divergence = _first_divergence(traces[0], trace)
            if divergence is not None:
                result.divergence = divergence
                break
    return result


def sanitize_scenario(
    make_scenario: Callable[[], Any],
    until: float,
    seed: Optional[int] = None,
    runs: int = 2,
    freeze_packets: bool = False,
) -> SanitizeResult:
    """Double-run a :class:`~repro.api.Scenario` factory.

    ``make_scenario`` must return a *fresh, unbuilt* scenario each
    call; ``seed`` (when given) overrides the scenario seed so one
    factory can sweep seeds.
    """

    def run_once(sanitizer: SimSanitizer) -> None:
        scenario = make_scenario()
        if seed is not None:
            scenario.seed(seed)
        scenario.build()
        sanitizer.attach(scenario.sim)
        scenario.run(until=until)

    return compare_runs(
        run_once, seed=seed, runs=runs, freeze_packets=freeze_packets
    )


def sanitize_scenario_multiprocess(
    make_scenario: Callable[[], Any],
    until: float,
    seed: Optional[int] = None,
    runs: int = 2,
    worker_counts=(0, 2),
) -> SanitizeResult:
    """Digest-compare multiprocess runs of a scenario factory.

    Each run rebuilds the scenario from scratch and executes it on the
    multiprocess backend with the next worker count from
    ``worker_counts`` (cycled), so the comparison covers both
    run-to-run repeatability *and* invariance to how domains are dealt
    across workers. Workers stream their domains' native digests
    (:meth:`~repro.engine.domain.EventDomain.enable_digest`, the same
    bytes a :class:`DomainProbe` hashes), which compose into one
    comparable hash.

    Event *records* stay in the workers, so a failing comparison
    reports digests only — rerun on the serial backend to localise the
    first divergent event.
    """
    from repro.engine.parallel import run_multiprocess

    if runs < 2:
        raise ValueError(f"need at least 2 runs to compare, got {runs}")
    result = SanitizeResult(seed=seed)
    for index in range(runs):
        workers = worker_counts[index % len(worker_counts)]
        scenario = make_scenario()
        if seed is not None:
            scenario.seed(seed)
        scenario.build()
        mp = run_multiprocess(scenario, until=until, workers=workers)
        result.digests.append(mp.composed_digest)
        result.outcomes.append(mp.composed_outcome)
        result.events.append(
            sum(mp.domain_digest_events.values())
        )
    return result
