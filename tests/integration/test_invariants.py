"""Property-based invariants on the core data path."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.packet import PacketDescriptor
from repro.core.pipe import INFINITY, Pipe
from repro.core.scheduler import PipeScheduler
from repro.net.packet import Packet


def descriptor(size):
    return PacketDescriptor(Packet(0, 1, size, "udp"), (), 0, 0.0)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    num_packets=st.integers(1, 80),
    queue_limit=st.integers(1, 30),
    loss=st.floats(0.0, 0.5),
)
def test_pipe_conservation(seed, num_packets, queue_limit, loss):
    """arrivals == departures + drops once the pipe fully drains."""
    rng = random.Random(seed)
    pipe = Pipe(0, 1e6, 0.005, loss_rate=loss, queue_limit=queue_limit)
    now = 0.0
    exits = []
    for _ in range(num_packets):
        now += rng.uniform(0.0, 0.02)
        pipe.arrival(descriptor(rng.randrange(40, 1500)), now, now, rng)
        exits.extend(pipe.service(now))
    exits.extend(pipe.service(now + 1e9))
    drops = pipe.drops_overflow + pipe.drops_random + pipe.drops_down
    assert pipe.arrivals == num_packets
    assert len(exits) + drops == num_packets
    assert pipe.in_flight == 0
    assert pipe.departures == len(exits)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), num_packets=st.integers(2, 60))
def test_pipe_fifo_ordering(seed, num_packets):
    """Packets exit a pipe in arrival order (FIFO discipline)."""
    rng = random.Random(seed)
    pipe = Pipe(0, 5e5, 0.003, queue_limit=1000)
    sent = []
    now = 0.0
    for index in range(num_packets):
        now += rng.uniform(0.0, 0.01)
        d = descriptor(rng.randrange(40, 1500))
        d.packet.segment = index
        if pipe.arrival(d, now, now, rng):
            sent.append(index)
    exited = [d.packet.segment for d in pipe.service(now + 1e9)]
    assert exited == sent


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_pipe_exits_never_before_ideal_time(seed):
    """No packet exits before its exact (unquantized) exit time, and
    ideal times are consistent with bandwidth + latency."""
    rng = random.Random(seed)
    pipe = Pipe(0, 1e6, 0.01, queue_limit=1000)
    now = 0.0
    pending = []
    for _ in range(30):
        now += rng.uniform(0.0, 0.02)
        d = descriptor(1000)
        if pipe.arrival(d, now, now, rng):
            pending.append((d, now))
    for d, arrived in pending:
        # Lower bound: own transmission + latency from arrival.
        assert d.ideal_time >= arrived + 1000 * 8 / 1e6 + 0.01 - 1e-12
    exits = pipe.service(now + 1e9)
    assert len(exits) == len(pending)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    tick=st.sampled_from([0.0, 1e-4, 1e-3]),
)
def test_scheduler_services_everything_eventually(seed, tick):
    """Whatever the arrival pattern and tick, all accepted packets are
    eventually serviced, each at or after its deadline (within the
    float-noise tolerance)."""
    rng = random.Random(seed)
    scheduler = PipeScheduler(tick_s=tick)
    pipes = [Pipe(i, rng.uniform(1e5, 1e7), rng.uniform(0, 0.02), queue_limit=500)
             for i in range(4)]
    accepted = 0
    now = 0.0
    for _ in range(60):
        now += rng.uniform(0.0, 0.005)
        pipe = rng.choice(pipes)
        if pipe.arrival(descriptor(rng.randrange(40, 1500)), now, now, rng):
            accepted += 1
            scheduler.notify(pipe)
    serviced = 0
    guard = 0
    while True:
        wake = scheduler.next_wake()
        if wake == INFINITY:
            break
        now = max(now, wake)
        for _pipe, exits in scheduler.collect(now):
            serviced += len(exits)
        guard += 1
        assert guard < 10_000, "scheduler failed to drain"
    assert serviced == accepted


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 5000), cores=st.integers(1, 3))
def test_emulation_packet_conservation(seed, cores):
    """At the whole-emulator level: every packet that entered either
    exited, was dropped somewhere accountable, or is still inside."""
    from repro.core import DistillationMode, ExperimentPipeline
    from repro.engine import Simulator
    from repro.topology import ring_topology

    rng = random.Random(seed)
    sim = Simulator()
    emulation = (
        ExperimentPipeline(sim, seed=seed)
        .create(ring_topology(num_routers=4, vns_per_router=2))
        .distill(DistillationMode.HOP_BY_HOP)
        .assign(cores)
        .bind(2)
        .run()
    )
    sinks = [
        emulation.vn(vn).udp_socket(port=9) for vn in range(emulation.num_vns)
    ]
    sender_sockets = [emulation.vn(vn).udp_socket() for vn in range(emulation.num_vns)]
    for _ in range(100):
        src, dst = rng.sample(range(emulation.num_vns), 2)
        sim.at(
            rng.uniform(0, 0.5), sender_sockets[src].send_to, dst, 9, rng.randrange(40, 1460)
        )
    sim.run(until=5.0)
    monitor = emulation.monitor
    in_pipes = sum(pipe.in_flight for pipe in emulation.pipes.built())
    assert in_pipes == 0  # long drained
    accounted = (
        monitor.packets_delivered
        + emulation.virtual_drops()
        + monitor.physical_drops_ring
        + monitor.physical_drops_egress
    )
    assert accounted == monitor.packets_entered
    assert monitor.packets_delivered + monitor.packets_unroutable > 0
