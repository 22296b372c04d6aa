"""Tests for physical link serialization and drops."""

import pytest

from repro.engine import Simulator
from repro.hardware import PhysicalLink


def test_single_packet_timing():
    sim = Simulator()
    link = PhysicalLink(sim, rate_bps=1e6, latency_s=0.001, queue_limit=4)
    arrivals = []
    assert link.send(1250, arrivals.append, "a")  # 10 ms serialization
    sim.run()
    assert arrivals == ["a"]
    assert sim.now == pytest.approx(0.011)


def test_back_to_back_serialization():
    sim = Simulator()
    link = PhysicalLink(sim, rate_bps=1e6, latency_s=0.0)
    arrivals = []
    link.send(1250, lambda: arrivals.append(sim.now))
    link.send(1250, lambda: arrivals.append(sim.now))
    sim.run()
    assert arrivals == [pytest.approx(0.01), pytest.approx(0.02)]


def test_queue_overflow_drops():
    sim = Simulator()
    link = PhysicalLink(sim, rate_bps=1e6, queue_limit=2)
    accepted = sum(link.send(1250, lambda: None) for _ in range(5))
    assert accepted == 2
    assert link.dropped == 3
    assert link.accepted == 2


def test_queue_drains_over_time():
    sim = Simulator()
    link = PhysicalLink(sim, rate_bps=1e6, queue_limit=2)
    link.send(1250, lambda: None)
    link.send(1250, lambda: None)
    assert not link.send(1250, lambda: None)
    sim.run(until=0.015)  # first packet serialized at 10 ms
    assert link.queued == 1
    assert link.send(1250, lambda: None)


def test_framing_overhead_counts_against_wire():
    sim = Simulator()
    link = PhysicalLink(sim, rate_bps=1e6, latency_s=0.0, framing_bytes=250)
    done = []
    link.send(1000, lambda: done.append(sim.now))
    sim.run()
    assert done[0] == pytest.approx(0.01)  # 1250 wire bytes at 1 Mb/s
    assert link.bytes_sent == 1250


def test_idle_gap_resets_serializer():
    sim = Simulator()
    link = PhysicalLink(sim, rate_bps=1e6, latency_s=0.0)
    done = []
    link.send(1250, lambda: done.append(sim.now))
    sim.run()
    sim.at(1.0, lambda: link.send(1250, lambda: done.append(sim.now)))
    sim.run()
    assert done == [pytest.approx(0.01), pytest.approx(1.01)]


def test_invalid_rate():
    sim = Simulator()
    with pytest.raises(ValueError):
        PhysicalLink(sim, rate_bps=0)


def test_callback_args_passed():
    sim = Simulator()
    link = PhysicalLink(sim, rate_bps=1e9)
    seen = []
    link.send(100, lambda a, b: seen.append((a, b)), 1, "x")
    sim.run()
    assert seen == [(1, "x")]


def test_accepted_send_pushes_exactly_one_heap_entry():
    sim = Simulator()
    link = PhysicalLink(sim, rate_bps=1e6, queue_limit=2)
    for expected in (1, 2):
        assert link.send(1250, lambda: None)
        assert sim.pending == expected
    assert not link.send(1250, lambda: None)  # a drop pushes nothing
    assert sim.pending == 2


def test_serialization_ending_exactly_now_has_left_the_queue():
    # done <= now: a packet whose serialization ends at this instant
    # no longer counts, even for an event at that time that was
    # scheduled before the send (and so dispatches ahead of anything
    # the send scheduled for that time).
    sim = Simulator()
    link = PhysicalLink(sim, rate_bps=1e6, latency_s=0.0, queue_limit=1)
    results = []

    def probe():
        results.append((link.queued, link.send(1250, lambda: None)))

    sim.at(0.01, probe)
    assert link.send(1250, lambda: None)  # serialized at t = 0.01
    sim.run()
    assert results == [(0, True)]
    assert link.dropped == 0


def test_queued_is_right_after_an_idle_gap():
    sim = Simulator()
    link = PhysicalLink(sim, rate_bps=1e6, latency_s=0.0, queue_limit=4)
    for _ in range(3):
        link.send(1250, lambda: None)
    assert link.queued == 3
    sim.run(until=0.025)  # two of three serialized (at 10 and 20 ms)
    assert link.queued == 1
    sim.run(until=5.0)  # long idle: nothing left, nothing negative
    assert link.queued == 0
    assert link.send(1250, lambda: None)
    assert link.queued == 1
    assert link.busy_until() == pytest.approx(5.01)


def test_link_that_never_sends_allocates_no_store():
    sim = Simulator()
    link = PhysicalLink(sim, rate_bps=1e6)
    assert link.queued == 0
    assert link._done is None
    link.send(1250, lambda: None)
    assert link._done is not None
