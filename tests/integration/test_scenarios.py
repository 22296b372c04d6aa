"""Cross-module scenario tests: the pieces working together."""

import random

import pytest

from repro.apps.netperf import TcpStream
from repro.core import (
    CrossTrafficMatrix,
    CrossTrafficModel,
    DistillationMode,
    EmulationConfig,
    ExperimentPipeline,
    FaultApplier,
)
from repro.core.assign import single_core
from repro.core.bind import bind_vns
from repro.core.emulator import Emulation
from repro.core.routing_emulation import DistanceVectorRouting
from repro.engine import Simulator
from repro.faults import FaultPlan, LinkDown, LinkUp
from repro.net.interpose import interpose
from repro.topology import NodeKind, Topology, ring_topology


def redundant_topology():
    """Two disjoint router paths between a pair of clients."""
    topology = Topology()
    c0 = topology.add_node(NodeKind.CLIENT)
    r1 = topology.add_node(NodeKind.STUB)
    r2 = topology.add_node(NodeKind.STUB)
    c3 = topology.add_node(NodeKind.CLIENT)
    topology.add_link(c0.id, r1.id, 10e6, 0.002)
    topology.add_link(r1.id, c3.id, 10e6, 0.002)
    topology.add_link(c0.id, r2.id, 5e6, 0.010)
    topology.add_link(r2.id, c3.id, 5e6, 0.010)
    return topology


def test_tcp_survives_link_failover():
    """A bulk transfer keeps its connection across a path failure and
    completes over the backup path."""
    topology = redundant_topology()
    sim = Simulator()
    emulation = (
        ExperimentPipeline(sim)
        .create(topology)
        .run(EmulationConfig.reference())
    )
    emulation.vn(1).tcp_listen(80, lambda c: None)
    conn = emulation.vn(0).tcp_connect(
        1, 80, on_established=lambda c: c.send(8_000_000, message="eof")
    )
    # Fast path down mid-transfer, back up at t=4.
    FaultApplier(emulation, FaultPlan.of(LinkDown(1.0, 0), LinkUp(4.0, 0))).install()
    sim.run(until=30.0)
    assert conn.bytes_acked == 8_000_000
    # The dying link dropped its queue: TCP saw real loss (recovered
    # by fast retransmit and/or RTO depending on what was in flight).
    assert conn.timeouts + conn.fast_retransmits >= 1
    assert conn.segments_retransmitted >= 1


def test_tcp_through_dv_routing_convergence():
    """Same failover, but with the emulated routing protocol: the
    transfer stalls during convergence yet still completes."""
    topology = redundant_topology()
    sim = Simulator()
    protocol = DistanceVectorRouting(sim, topology, processing_delay_s=0.05)
    emulation = Emulation(
        sim,
        topology,
        EmulationConfig.reference(),
        assignment=single_core(topology),
        binding=bind_vns(topology, num_hosts=1, num_cores=1),
        seed=0,
        routing=protocol,
    )
    emulation.vn(1).tcp_listen(80, lambda c: None)
    conn = emulation.vn(0).tcp_connect(
        1, 80, on_established=lambda c: c.send(4_000_000)
    )
    sim.at(1.0, protocol.link_failed, topology.link_between(0, 1))
    sim.run(until=60.0)
    assert conn.bytes_acked == 4_000_000


def test_cross_traffic_and_faults_compose():
    """Synthetic cross traffic and a fault schedule drive the same
    pipes without stepping on each other's bookkeeping."""
    topology = ring_topology(num_routers=5, vns_per_router=2)
    sim = Simulator()
    emulation = (
        ExperimentPipeline(sim)
        .create(topology)
        .run(EmulationConfig.reference())
    )
    model = CrossTrafficModel(emulation)
    matrix = CrossTrafficMatrix()
    matrix.set_demand(0, 9, 1e6)
    model.schedule_profile([(1.0, matrix), (3.0, None)])
    ring_link = next(
        l.id
        for l in topology.links.values()
        if topology.node(l.a).kind is NodeKind.STUB
        and topology.node(l.b).kind is NodeKind.STUB
    )
    FaultApplier(
        emulation, FaultPlan.of(LinkDown(2.0, ring_link), LinkUp(4.0, ring_link))
    ).install()

    stream = TcpStream(emulation, 0, 9)
    sim.run(until=8.0)
    assert stream.bytes_received > 0
    # After both perturbations clear, foreground pipes are restored.
    for src, dst, _bps in matrix.pairs():
        for pipe in emulation.lookup_pipes(src, dst):
            baseline = model._baseline_of(pipe.id)
            assert pipe.bandwidth_bps == pytest.approx(baseline[0])


def test_red_links_trim_queues_vs_droptail():
    """A RED-annotated bottleneck keeps standing queues shorter than
    drop-tail under the same offered load."""
    results = {}
    for qdisc in ("droptail", "red"):
        topology = Topology()
        a = topology.add_node(NodeKind.CLIENT)
        r1 = topology.add_node(NodeKind.STUB)
        r2 = topology.add_node(NodeKind.STUB)
        b = topology.add_node(NodeKind.CLIENT)
        topology.add_link(a.id, r1.id, 50e6, 0.001)
        kwargs = {"qdisc": "red"} if qdisc == "red" else {}
        bottleneck = topology.add_link(
            r1.id, r2.id, 2e6, 0.020, queue_limit=100, **kwargs
        )
        topology.add_link(r2.id, b.id, 50e6, 0.001)
        sim = Simulator()
        emulation = (
            ExperimentPipeline(sim)
            .create(topology)
            .run(EmulationConfig.reference())
        )
        stream = TcpStream(emulation, 0, 1)
        pipe = emulation.pipes_of_link(bottleneck.id)[0]
        samples = []
        def sample():
            samples.append(pipe.backlog_pkts)
            if sim.now < 10.0:
                sim.schedule(0.05, sample)
        sim.schedule(2.0, sample)
        sim.run(until=10.0)
        stream.stop()
        results[qdisc] = (
            sum(samples) / len(samples),
            stream.bytes_received,
        )
    red_queue, red_bytes = results["red"]
    dt_queue, dt_bytes = results["droptail"]
    assert red_queue < dt_queue * 0.8
    # Throughput stays in the same ballpark (RED trades tiny goodput
    # for much lower queueing delay).
    assert red_bytes > 0.7 * dt_bytes


def test_interposed_apps_over_full_emulation():
    """Hostname-level applications run over the full-fidelity core."""
    topology = ring_topology(num_routers=4, vns_per_router=2)
    sim = Simulator()
    emulation = (
        ExperimentPipeline(sim)
        .create(topology)
        .distill(DistillationMode.WALK_IN, walk_in=1)
        .assign(2)
        .bind(2)
        .run()
    )
    names, envs = interpose(
        emulation, hostnames={0: "client.example", 7: "server.example"}
    )
    received = []
    envs[7].tcp_listen(
        80,
        lambda conn: setattr(
            conn, "on_message", lambda c, m: received.append(m)
        ),
    )
    envs[0].tcp_connect(
        "server.example",
        80,
        on_established=lambda c: c.send(10_000, message="payload"),
    )
    sim.run(until=5.0)
    assert received == ["payload"]
    assert emulation.accuracy_report().packets_delivered > 10
