"""Tests for the emulated distance-vector routing protocol."""

import pytest

from repro.core import EmulationConfig
from repro.core.assign import single_core
from repro.core.bind import bind_vns
from repro.core.emulator import Emulation
from repro.core.routing_emulation import (
    INFINITY_METRIC,
    DistanceVectorRouting,
)
from repro.engine import Simulator
from repro.topology import NodeKind, Topology, ring_topology


def build_square():
    """c0 - r1 - c3 with an alternate path c0 - r2 - c3."""
    topology = Topology()
    c0 = topology.add_node(NodeKind.CLIENT)
    r1 = topology.add_node(NodeKind.STUB)
    r2 = topology.add_node(NodeKind.STUB)
    c3 = topology.add_node(NodeKind.CLIENT)
    topology.add_link(c0.id, r1.id, 10e6, 0.002)
    topology.add_link(r1.id, c3.id, 10e6, 0.002)
    topology.add_link(c0.id, r2.id, 10e6, 0.002)
    topology.add_link(r2.id, c3.id, 10e6, 0.002)
    return topology


def test_converged_start_matches_bfs():
    topology = build_square()
    sim = Simulator()
    protocol = DistanceVectorRouting(sim, topology)
    assert protocol.is_converged()
    assert protocol.distance[0][3] == 2
    route = protocol.route(0, 3)
    assert route is not None
    assert len(route) == 2


def test_route_to_self_is_empty():
    sim = Simulator()
    protocol = DistanceVectorRouting(sim, build_square())
    assert protocol.route(2, 2) == ()


def test_cold_start_converges_via_messages():
    topology = build_square()
    sim = Simulator()
    protocol = DistanceVectorRouting(sim, topology, converged_start=False)
    assert not protocol.is_converged()
    sim.run(until=5.0)
    assert protocol.is_converged()
    assert protocol.messages_sent > 0
    assert protocol.bytes_sent > 0


def test_failure_causes_transient_blackhole_then_reroute():
    topology = build_square()
    sim = Simulator()
    protocol = DistanceVectorRouting(sim, topology, processing_delay_s=0.05)
    link = topology.link_between(0, 1)
    # Before failure: route via r1 or r2 (both 2 hops).
    assert len(protocol.route(0, 3)) == 2

    protocol.link_failed(link)
    # 0 detects instantly: if its route used r1, destination r1 (and
    # possibly 3) is momentarily unreachable from 0.
    assert protocol.distance[0][1] == INFINITY_METRIC or protocol.route(0, 3)

    sim.run(until=10.0)
    assert protocol.is_converged()
    route = protocol.route(0, 3)
    assert [hop.dst for hop in route] == [2, 3]
    assert protocol.route(0, 1) is not None  # r1 still reachable via c3


def test_convergence_takes_protocol_time():
    topology = ring_topology(num_routers=8, vns_per_router=1)
    sim = Simulator()
    protocol = DistanceVectorRouting(sim, topology, processing_delay_s=0.1)
    ring_link = topology.link_between(0, 1)
    protocol.link_failed(ring_link)
    assert not protocol.is_converged()
    # After one processing delay it still hasn't fully converged
    # (news must cross several hops).
    sim.run(until=0.15)
    assert not protocol.is_converged()
    sim.run(until=30.0)
    assert protocol.is_converged()


def test_recovery_restores_short_routes():
    topology = build_square()
    sim = Simulator()
    protocol = DistanceVectorRouting(sim, topology)
    link = topology.link_between(0, 1)
    protocol.link_failed(link)
    sim.run(until=10.0)
    protocol.link_recovered(link)
    sim.run(until=10.0 + 10.0)
    assert protocol.is_converged()
    assert protocol.distance[0][1] == 1


def test_partition_reports_unreachable():
    topology = Topology()
    a = topology.add_node(NodeKind.CLIENT)
    b = topology.add_node(NodeKind.CLIENT)
    link = topology.add_link(a.id, b.id, 1e6, 0.001)
    sim = Simulator()
    protocol = DistanceVectorRouting(sim, topology)
    protocol.link_failed(link)
    sim.run(until=5.0)
    assert protocol.route(0, 1) is None
    assert protocol.distance[0][1] == INFINITY_METRIC


def test_emulation_with_dv_routing_delivers_and_reroutes():
    """End to end: packets flow under DV routing; a failure causes a
    transient unroutable window before delivery resumes."""
    topology = build_square()
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
    received = []
    emulation.vn(1).udp_socket(port=9, on_receive=lambda *a: received.append(sim.now))
    sender = emulation.vn(0).udp_socket()

    sender.send_to(1, 9, 100)
    link = topology.link_between(0, 1)
    sim.at(1.0, protocol.link_failed, link)
    # Immediately after the failure the route may blackhole...
    sim.at(1.01, sender.send_to, 1, 9, 100)
    # ...but after convergence traffic flows via r2.
    sim.at(5.0, sender.send_to, 1, 9, 100)
    sim.run(until=10.0)
    assert len(received) >= 2
    assert received[0] < 1.0
    assert any(when > 5.0 for when in received)


def test_poison_reverse_damps_count_to_infinity():
    """A chain: after cutting the far end, metrics go straight to
    infinity rather than counting up slowly."""
    topology = Topology()
    nodes = [topology.add_node(NodeKind.STUB) for _ in range(4)]
    links = [
        topology.add_link(nodes[i].id, nodes[i + 1].id, 1e6, 0.001)
        for i in range(3)
    ]
    sim = Simulator()
    protocol = DistanceVectorRouting(sim, topology, processing_delay_s=0.01)
    protocol.link_failed(links[2])  # cut node 3 off
    sim.run(until=20.0)
    assert protocol.is_converged()
    for node in range(3):
        assert protocol.distance[node][3] == INFINITY_METRIC
    # Messages stayed bounded (no prolonged counting war).
    assert protocol.messages_sent < 200
