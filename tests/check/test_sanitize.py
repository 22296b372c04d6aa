"""Tests for the runtime sanitizer (repro.check.sanitize)."""

import random  # repro: allow-rng (tests construct deliberate faults)

import pytest

from repro.api import Scenario
from repro.check.sanitize import (
    DispatchRecord,
    SimSanitizer,
    _first_divergence,
    compare_runs,
    compose_domain_digests,
    sanitize_scenario,
)
from repro.engine.simulator import Simulator
from repro.topology import dumbbell_topology


def _tiny_scenario() -> Scenario:
    return (
        Scenario.from_topology(
            dumbbell_topology(
                clients_per_side=2,
                access_bandwidth_bps=10e6,
                bottleneck_bandwidth_bps=2e6,
            )
        )
        .netperf(flows=2)
        .observe(False)
    )


# ----------------------------------------------------------------------
# Recording basics
# ----------------------------------------------------------------------

def test_sanitizer_records_time_seq_callsite():
    sim = Simulator()
    sanitizer = SimSanitizer().attach(sim)

    def ping():
        pass

    sim.schedule(0.5, ping)
    sim.schedule(1.0, ping)
    sim.run()
    sanitizer.detach()
    assert sanitizer.dispatched == 2
    assert [r.time for r in sanitizer.records] == [0.5, 1.0]
    assert [r.seq for r in sanitizer.records] == [1, 2]
    assert all("ping" in r.callsite for r in sanitizer.records)
    assert len(sanitizer.digest) == 64


def test_detach_restores_simulator_hook():
    sim = Simulator()
    sanitizer = SimSanitizer().attach(sim)
    sanitizer.detach()
    assert sim.on_dispatch is None
    with pytest.raises(RuntimeError):
        SimSanitizer().attach(Simulator()).attach(Simulator())


def test_identical_schedules_have_identical_digests():
    def run(sanitizer):
        sim = Simulator()
        sanitizer.attach(sim)
        rng = random.Random(99)
        for _ in range(50):
            sim.schedule(rng.uniform(0.0, 1.0), lambda: None)
        sim.run()

    result = compare_runs(run)
    assert result.identical
    assert result.divergence is None
    assert result.events == [50, 50]
    assert "OK" in result.summary()


# ----------------------------------------------------------------------
# Catching nondeterminism
# ----------------------------------------------------------------------

def test_unseeded_rng_fault_caught_with_first_divergence():
    """A deliberately nondeterministic toy: 10 deterministic events,
    then one whose timestamp comes from OS entropy. The sanitizer must
    pinpoint the first divergent event, not just 'digests differ'."""

    def run(sanitizer):
        sim = Simulator()
        sanitizer.attach(sim)
        for i in range(10):
            sim.at(float(i) * 0.1, lambda: None)
        unseeded = random.Random()  # OS entropy: differs per run
        sim.at(2.0 + unseeded.random() * 1e-3, _chaos_event)
        sim.run()

    result = compare_runs(run, seed=0)
    assert not result.identical
    divergence = result.divergence
    assert divergence is not None
    assert divergence.index == 10  # the 11th event is the fault
    assert divergence.first.time != divergence.second.time
    assert divergence.first.time == pytest.approx(2.0, abs=2e-3)
    assert "_chaos_event" in divergence.first.callsite
    assert "NONDETERMINISTIC" in result.summary()


def _chaos_event():
    pass


def test_set_ordered_fanout_caught():
    """Iterating a set of objects into the heap gives run-dependent
    sequence numbers (set order hashes on addresses)."""

    class Peer:
        def poke(self):
            pass

    def run(sanitizer):
        sim = Simulator()
        sanitizer.attach(sim)
        peers = {Peer() for _ in range(8)}
        for peer in peers:
            sim.schedule(0.1, peer.poke)
        sim.run()

    results = [compare_runs(run) for _ in range(5)]
    # Address-hash ordering is not guaranteed to differ on any single
    # double-run; over several it effectively always does. When caught,
    # the divergence must be classified as a same-timestamp tie flip.
    caught = [r for r in results if not r.identical]
    for result in caught:
        assert result.divergence.tie_order_only
        assert result.divergence.time == pytest.approx(0.1)


def test_trace_length_mismatch_is_divergence():
    a = [DispatchRecord(0.1, 1, "f")]
    b = [DispatchRecord(0.1, 1, "f"), DispatchRecord(0.2, 2, "g")]
    divergence = _first_divergence(a, b)
    assert divergence.index == 1
    assert divergence.first is None
    assert divergence.second == b[1]
    assert not divergence.tie_order_only


def test_tie_flip_detection():
    a = [DispatchRecord(0.1, 1, "f"), DispatchRecord(0.1, 2, "g")]
    b = [DispatchRecord(0.1, 2, "g"), DispatchRecord(0.1, 1, "f")]
    divergence = _first_divergence(a, b)
    assert divergence.index == 0
    assert divergence.tie_order_only
    genuine = [DispatchRecord(0.1, 1, "f"), DispatchRecord(0.3, 9, "h")]
    divergence = _first_divergence(a, genuine)
    assert divergence.index == 1
    assert not divergence.tie_order_only


def test_tie_flip_ignores_heap_sequence_pairing():
    """An insertion-order flip re-pairs seq numbers with callsites
    (the heap assigns seq in insertion order), so the classifier must
    compare the timestamp group on (time, callsite) only."""
    a = [DispatchRecord(0.1, 1, "f"), DispatchRecord(0.1, 2, "g")]
    b = [DispatchRecord(0.1, 1, "g"), DispatchRecord(0.1, 2, "f")]
    divergence = _first_divergence(a, b)
    assert divergence.index == 0
    assert divergence.tie_order_only


def test_tie_flip_group_extends_past_equal_prefix_records():
    # Divergence mid-group: earlier records at the tied timestamp
    # matched exactly, but they still belong to the comparison window.
    a = [
        DispatchRecord(0.1, 1, "x"),
        DispatchRecord(0.1, 2, "f"),
        DispatchRecord(0.1, 3, "g"),
        DispatchRecord(0.2, 4, "h"),
    ]
    b = [a[0], DispatchRecord(0.1, 2, "g"), DispatchRecord(0.1, 3, "f"), a[3]]
    divergence = _first_divergence(a, b)
    assert divergence.index == 1
    assert divergence.tie_order_only


def test_same_timestamp_different_events_is_not_tie_flip():
    a = [DispatchRecord(0.1, 1, "f")]
    b = [DispatchRecord(0.1, 1, "g")]
    divergence = _first_divergence(a, b)
    assert divergence.index == 0
    assert divergence.time == pytest.approx(0.1)
    assert not divergence.tie_order_only


def _flip_a():
    pass


def _flip_b():
    pass


def test_insertion_order_flip_classified_end_to_end():
    """Deterministic tie-flip repro: the second run inserts the two
    same-timestamp events in the opposite order. compare_runs must
    flag the divergence AND classify it as tie-order-only."""
    runs_so_far = []

    def run(sanitizer):
        sim = Simulator()
        sanitizer.attach(sim)
        callbacks = [_flip_a, _flip_b]
        if runs_so_far:
            callbacks.reverse()
        runs_so_far.append(True)
        for fn in callbacks:
            sim.schedule(0.1, fn)
        sim.run()

    result = compare_runs(run)
    assert not result.identical
    assert result.divergence is not None
    assert result.divergence.index == 0
    assert result.divergence.time == pytest.approx(0.1)
    assert result.divergence.tie_order_only
    assert "same-timestamp events changed relative order" in result.summary()


# ----------------------------------------------------------------------
# Scenario-level equality (the acceptance bar)
# ----------------------------------------------------------------------

@pytest.mark.parametrize("seed", [1, 2, 3])
def test_seeded_scenario_double_run_digest_equality(seed):
    result = sanitize_scenario(_tiny_scenario, until=0.5, seed=seed)
    assert result.identical, result.summary()
    assert result.events[0] > 0
    assert result.events[0] == result.events[1]


def test_scenario_with_unseeded_traffic_caught():
    def make():
        scenario = _tiny_scenario()

        def chaos(emulation):
            rng = random.Random()  # unseeded
            emulation.sim.schedule(rng.uniform(0.01, 0.4), _chaos_event)

        return scenario.traffic(chaos)

    result = sanitize_scenario(make, until=0.5, seed=1)
    assert not result.identical
    assert result.divergence is not None


# ----------------------------------------------------------------------
# Packet freezing
# ----------------------------------------------------------------------

def test_frozen_packet_rejects_mutation():
    from repro.net.packet import Packet

    sim = Simulator()
    sanitizer = SimSanitizer(freeze_packets=True).attach(sim)
    try:
        loose = Packet(0, 1, 100, "udp")
        loose.size_bytes = 120  # not frozen: writable
        frozen = Packet(0, 1, 100, "udp")
        sanitizer.freeze(frozen)
        with pytest.raises(AttributeError, match="enqueued"):
            frozen.size_bytes = 140
    finally:
        sanitizer.detach()
    # Detach restores normal semantics.
    frozen.size_bytes = 140
    assert frozen.size_bytes == 140


def test_scenario_run_is_freeze_clean():
    """The real stack never mutates a packet after pipe acceptance."""
    result = sanitize_scenario(
        _tiny_scenario, until=0.3, seed=1, freeze_packets=True
    )
    assert result.identical, result.summary()


# ----------------------------------------------------------------------
# Domain digest composition
# ----------------------------------------------------------------------

def test_compose_domain_digests_with_empty_domain():
    import hashlib

    empty = hashlib.sha256(b"").hexdigest()
    active = hashlib.sha256(b"events").hexdigest()
    with_idle = compose_domain_digests({0: active, 1: empty})
    # An idle domain is part of the run's identity: dropping it must
    # change the composition (a 2-domain run with one idle domain is
    # not the same execution as a 1-domain run).
    assert with_idle != compose_domain_digests({0: active})
    # Composition is keyed and sorted by domain id, not dict order.
    assert compose_domain_digests({1: empty, 0: active}) == with_idle
    # Degenerate case: no domains at all folds to the empty digest.
    assert compose_domain_digests({}) == empty


def test_partitioned_attach_composes_over_idle_domain():
    """A 2-domain partitioned run where every event lands in domain 0:
    the idle domain contributes an empty-stream digest, and the
    sanitizer's digest is the composition over both."""
    import hashlib

    from repro.engine.sync import PartitionedSimulator

    sim = PartitionedSimulator(2, lookahead=0.01)
    sanitizer = SimSanitizer().attach(sim)
    sim.at(0.1, _chaos_event)  # domain 0; domain 1 never dispatches
    sim.run(until=0.2)
    digests = sanitizer.domain_digests()
    assert sanitizer.domain_counts() == {0: 1, 1: 0}
    assert digests[1] == hashlib.sha256(b"").hexdigest()
    assert sanitizer.digest == compose_domain_digests(digests)
    sanitizer.detach()
    assert sanitizer.dispatched == 1
    assert [r.time for r in sanitizer.records] == [0.1]


# ----------------------------------------------------------------------
# Multiprocess backend
# ----------------------------------------------------------------------

def test_sanitize_scenario_multiprocess_varies_workers():
    from repro.check.sanitize import sanitize_scenario_multiprocess
    from repro.topology import ring_topology

    def make():
        return (
            Scenario(
                ring_topology(num_routers=8, vns_per_router=2),
                name="ring8",
            )
            .distill("hop-by-hop")
            .assign(4)
            .netperf(flows=8)
            .observe(False)
            .backend("multiprocess", domains=4)
        )

    result = sanitize_scenario_multiprocess(
        make, until=0.03, seed=1, runs=2, worker_counts=(1, 2)
    )
    assert result.identical, result.summary()
    assert result.events[0] == result.events[1] > 0


def test_detach_restores_the_hook_chained_at_attach():
    sim = Simulator()
    hook = lambda event, fn: None  # noqa: E731
    sim.on_dispatch = hook
    SimSanitizer().attach(sim).detach()
    assert sim.on_dispatch is hook
