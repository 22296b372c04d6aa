"""Unit tests for pipe mechanics (bandwidth queue + delay line)."""

import random

import pytest

from repro.core.packet import PacketDescriptor
from repro.core.pipe import INFINITY, Pipe
from repro.net.packet import Packet


def make_descriptor(size=1000, src=0, dst=1):
    packet = Packet(src, dst, size, "udp")
    return PacketDescriptor(packet, (), 0, 0.0)


def make_pipe(bw=1e6, lat=0.01, **kwargs):
    return Pipe(0, bw, lat, **kwargs)


def test_single_packet_timing():
    pipe = make_pipe(bw=1e6, lat=0.01)
    descriptor = make_descriptor(size=1250)  # 10 ms serialization at 1 Mb/s
    assert pipe.arrival(descriptor, 0.0, 0.0)
    assert pipe.next_deadline() == pytest.approx(0.01)  # dequeue time
    assert pipe.service(0.005) == []
    assert pipe.service(0.0199) == []  # still in the delay line
    exits = pipe.service(0.02)
    assert exits == [descriptor]
    assert descriptor.ideal_time == pytest.approx(0.02)
    assert pipe.next_deadline() == INFINITY


def test_fifo_serialization_of_queue():
    pipe = make_pipe(bw=1e6, lat=0.0)
    first = make_descriptor(size=1250)
    second = make_descriptor(size=1250)
    pipe.arrival(first, 0.0, 0.0)
    pipe.arrival(second, 0.0, 0.0)
    assert pipe.backlog_pkts == 2
    assert pipe.service(0.01) == [first]
    assert pipe.service(0.02) == [second]


def test_queue_overflow_virtual_drop():
    pipe = make_pipe(queue_limit=2)
    accepted = [pipe.arrival(make_descriptor(), 0.0, 0.0) for _ in range(4)]
    assert accepted == [True, True, False, False]
    assert pipe.drops_overflow == 2
    assert pipe.arrivals == 4


def test_queue_drains_allow_new_arrivals():
    pipe = make_pipe(bw=1e6, lat=0.0, queue_limit=1)
    pipe.arrival(make_descriptor(size=1250), 0.0, 0.0)
    assert not pipe.arrival(make_descriptor(size=1250), 0.001, 0.001)
    pipe.service(0.01)
    assert pipe.arrival(make_descriptor(size=1250), 0.01, 0.01)


def test_random_loss():
    pipe = make_pipe(loss_rate=0.5, queue_limit=1000)
    rng = random.Random(42)
    results = [pipe.arrival(make_descriptor(), 0.0, 0.0, rng) for _ in range(200)]
    dropped = results.count(False)
    assert 60 < dropped < 140
    assert pipe.drops_random == dropped
    assert pipe.drops_overflow == 0


def test_down_pipe_drops_everything():
    pipe = make_pipe()
    pipe.up = False
    assert not pipe.arrival(make_descriptor(), 0.0, 0.0)
    assert pipe.drops_down == 1


def test_delay_line_holds_bandwidth_delay_product():
    # 10 packets back to back: each dequeues 1 ms apart, exits
    # latency later; the delay line holds ~latency/tx_time packets.
    pipe = make_pipe(bw=1e7, lat=0.005)  # tx=0.8ms for 1000B
    for _ in range(10):
        pipe.arrival(make_descriptor(size=1000), 0.0, 0.0)
    pipe.service(0.00481)  # 6 packets dequeued (at .8,1.6,...,4.8 ms)
    assert pipe.in_flight == 10
    assert pipe.backlog_pkts == 4


def test_ideal_time_tracks_exact_exit():
    pipe = make_pipe(bw=1e6, lat=0.01)
    descriptor = make_descriptor(size=1250)
    # Scheduled arrival is quantized later than the ideal arrival.
    pipe.arrival(descriptor, 0.0001, 0.0)
    exits = pipe.service(1.0)
    assert exits == [descriptor]
    # Ideal exit ignores the quantization of the scheduled arrival.
    assert descriptor.ideal_time == pytest.approx(0.02)


def test_idle_pipe_resets_serializer():
    pipe = make_pipe(bw=1e6, lat=0.0)
    a = make_descriptor(size=1250)
    pipe.arrival(a, 0.0, 0.0)
    pipe.service(1.0)
    b = make_descriptor(size=1250)
    pipe.arrival(b, 5.0, 5.0)
    assert pipe.next_deadline() == pytest.approx(5.01)


def test_set_params_validation():
    pipe = make_pipe()
    with pytest.raises(ValueError):
        pipe.set_params(bandwidth_bps=0)
    with pytest.raises(ValueError):
        pipe.set_params(latency_s=-1)
    with pytest.raises(ValueError):
        pipe.set_params(loss_rate=1.5)
    with pytest.raises(ValueError):
        pipe.set_params(queue_limit=0)


def test_rejected_set_params_changes_nothing():
    pipe = Pipe(0, 1e6, 0.01)
    with pytest.raises(ValueError, match="latency"):
        pipe.set_params(bandwidth_bps=5e6, latency_s=-1)
    with pytest.raises(ValueError, match="queue limit"):
        pipe.set_params(loss_rate=0.5, queue_limit=0)
    assert (pipe.bandwidth_bps, pipe.latency_s, pipe.loss_rate) == (1e6, 0.01, 0.0)


def test_set_params_affects_new_arrivals_only():
    pipe = make_pipe(bw=1e6, lat=0.0)
    first = make_descriptor(size=1250)
    pipe.arrival(first, 0.0, 0.0)
    pipe.set_params(bandwidth_bps=2e6)
    second = make_descriptor(size=1250)
    pipe.arrival(second, 0.0, 0.0)
    # First keeps its 10 ms dequeue; second takes 5 ms after it.
    assert pipe.service(0.0099) == []
    assert pipe.service(0.01) == [first]
    assert pipe.service(0.015) == [second]


def test_counters():
    pipe = make_pipe(bw=1e9, lat=0.0)
    for _ in range(5):
        pipe.arrival(make_descriptor(size=2000), 0.0, 0.0)
    pipe.service(1.0)
    assert pipe.departures == 5
    assert pipe.bytes_through == 10_000


def test_bytes_accepted_at_admit_bytes_through_at_departure():
    # Regression: bytes_through used to be counted at admission, so a
    # flushed queue inflated the delivered-throughput view.
    pipe = make_pipe(bw=1e9, lat=0.0)
    for _ in range(3):
        assert pipe.arrival(make_descriptor(size=2000), 0.0, 0.0)
    assert pipe.bytes_accepted == 6000
    assert pipe.bytes_through == 0  # nothing has departed yet
    pipe.service(1.0)
    assert pipe.bytes_through == 6000


def test_flushed_packets_never_count_as_through():
    pipe = make_pipe(bw=1e3, lat=0.01)  # slow: packets stay queued
    for _ in range(4):
        assert pipe.arrival(make_descriptor(size=1000), 0.0, 0.0)
    pipe.flush()
    assert pipe.bytes_accepted == 4000
    assert pipe.bytes_through == 0
    assert pipe.service(100.0) == []


def test_flush_resets_sched_hint():
    # Regression: flush() left _sched_hint at the dead entry's
    # deadline, so a post-flush arrival with a later deadline was
    # shadowed by the orphaned heap entry and never rescheduled.
    from repro.core.scheduler import PipeScheduler

    scheduler = PipeScheduler(tick_s=0.0)
    pipe = make_pipe(bw=1e6, lat=0.0)
    pipe.arrival(make_descriptor(size=1250), 0.0, 0.0)
    scheduler.notify(pipe)
    assert scheduler.earliest_deadline() == pytest.approx(0.01)
    pipe.flush()
    assert pipe._sched_hint == INFINITY
    assert scheduler.earliest_deadline() == INFINITY  # orphan discarded
    pipe.arrival(make_descriptor(size=2500), 5.0, 5.0)
    scheduler.notify(pipe)
    assert scheduler.earliest_deadline() == pytest.approx(5.02)
    serviced = scheduler.collect(5.02)
    assert len(serviced) == 1 and len(serviced[0][1]) == 1


def test_transmission_time_memo_tracks_bandwidth_changes():
    pipe = make_pipe(bw=1e6, lat=0.0)
    assert pipe.transmission_time(1250) == pytest.approx(0.01)
    assert pipe.transmission_time(1250) == pytest.approx(0.01)  # memo hit
    pipe.set_params(bandwidth_bps=2e6)
    assert pipe.transmission_time(1250) == pytest.approx(0.005)
    pipe.set_params(bandwidth_bps=2e6)  # unchanged: memo survives
    assert pipe.transmission_time(2500) == pytest.approx(0.01)


def test_descriptor_pool_recycles_released_descriptors():
    from repro.core.packet import POOL

    POOL.clear()
    first = PacketDescriptor.acquire(Packet(1, 2, 500, "udp"), (), 0, 0.0)
    assert first.slot == 0  # owns a dense slot in the table
    first.release()
    assert POOL.free == [0]  # parked as a recycled slot index
    packet = Packet(3, 4, 800, "udp")
    second = PacketDescriptor.acquire(packet, (), 1, 2.0)
    assert second is first  # recycled, not reallocated
    assert not POOL.free
    assert second.packet is packet
    assert second.hop_index == 0
    assert second.entry_core == 1
    assert second.entered_at == 2.0
    assert second.ideal_time == 2.0
    assert second.tunnel_hops == 0
    POOL.clear()


def test_descriptor_pool_overflow_stays_unpooled():
    from repro.core.packet import DescriptorPool

    pool = DescriptorPool(limit=1)
    a = pool.acquire(Packet(0, 1, 100, "udp"), (), 0, 0.0)
    b = pool.acquire(Packet(0, 1, 100, "udp"), (), 0, 0.0)
    assert a.slot == 0
    assert b.slot == -1  # beyond capacity: left to the collector
    b.release()
    assert not pool.free  # module POOL untouched by the overflow


def test_descriptor_release_after_pool_reset_is_safe():
    from repro.core.packet import POOL

    POOL.clear()
    survivor = PacketDescriptor.acquire(Packet(0, 1, 64, "udp"), (), 0, 0.0)
    POOL.clear()
    survivor.release()  # stale slot index must not be re-enqueued
    assert not POOL.free
    POOL.clear()
