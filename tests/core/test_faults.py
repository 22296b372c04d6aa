"""Tests for fault injection and dynamic network changes."""

import random

import pytest

from repro.core import (
    DistillationMode,
    EmulationConfig,
    ExperimentPipeline,
    FaultApplier,
)
from repro.engine import Simulator
from repro.faults import (
    FaultPlan,
    LinkDown,
    LinkUp,
    NodeChurn,
    Partition,
    Perturbation,
    SetLinkParams,
    random_stress,
)
from repro.topology import Topology, NodeKind, ring_topology


def build_square():
    topology = Topology()
    c0 = topology.add_node(NodeKind.CLIENT)
    r1 = topology.add_node(NodeKind.STUB)
    r2 = topology.add_node(NodeKind.STUB)
    c3 = topology.add_node(NodeKind.CLIENT)
    topology.add_link(c0.id, r1.id, 10e6, 0.001)
    topology.add_link(r1.id, c3.id, 10e6, 0.001)
    topology.add_link(c0.id, r2.id, 10e6, 0.020)
    topology.add_link(r2.id, c3.id, 10e6, 0.020)
    sim = Simulator()
    emulation = (
        ExperimentPipeline(sim)
        .create(topology)
        .distill(DistillationMode.HOP_BY_HOP)
        .assign(1)
        .bind(1)
        .run(EmulationConfig.reference())
    )
    return sim, emulation


def install(emulation, *events):
    return FaultApplier(emulation, FaultPlan.of(*events)).install()


def logged(applier, kind):
    return [entry["links"] for entry in applier.events_log if entry["kind"] == kind]


def stress(emulation, **kwargs):
    """A random stress plan over every link, drawn from the
    emulation's ``faults`` stream (the stream the applier draws
    perturbations from)."""
    return random_stress(
        emulation.rng.stream("faults"), emulation.topology.links, **kwargs
    )


def test_scheduled_link_failure_and_recovery():
    sim, emulation = build_square()
    applier = install(emulation, LinkDown(1.0, 0), LinkUp(2.0, 0))
    sim.run(until=1.5)
    assert not emulation.topology.links[0].up
    assert not emulation.pipes_of_link(0)[0].up
    sim.run(until=2.5)
    assert emulation.topology.links[0].up
    assert applier.injected == 1


def test_occurrence_at_t_is_seen_by_every_event_at_t():
    sim, emulation = build_square()
    seen = []

    def probe():
        seen.append((sim.now, emulation.topology.links[0].up))

    sim.at(1.0, probe)  # scheduled before the plan is installed
    applier = install(emulation, LinkDown(1.0, 0))
    sim.at(1.0, probe)
    sim.at(0.5, probe)
    sim.run(until=2.0)
    assert seen == [(0.5, True), (1.0, False), (1.0, False)]
    assert applier.applied == 1


def test_node_failure_fails_incident_links():
    sim, emulation = build_square()
    install(emulation, NodeChurn(1.0, 1), NodeChurn(2.0, 1, up=True))  # router r1
    sim.run(until=1.5)
    assert not emulation.topology.links[0].up
    assert not emulation.topology.links[1].up
    assert emulation.topology.links[2].up
    sim.run(until=2.5)
    assert emulation.topology.links[0].up


def test_partition_cuts_traffic():
    sim, emulation = build_square()
    received = []
    emulation.vn(1).udp_socket(port=9, on_receive=lambda *a: received.append(sim.now))
    sender = emulation.vn(0).udp_socket()
    install(emulation, Partition(1.0, (0, 2)))  # both of c0's access links
    sim.at(0.5, sender.send_to, 1, 9, 100)
    sim.at(1.5, sender.send_to, 1, 9, 100)
    sim.run(until=3.0)
    assert len(received) == 1
    assert emulation.monitor.packets_unroutable == 1


def test_node_failure_recomputes_routes_and_recovery_restores_them():
    """Failing r1 reroutes c0->c3 over the 20 ms detour through r2;
    recovering it snaps traffic back to the 1 ms path (the paper's
    instantaneous shortest-path recomputation)."""
    sim, emulation = build_square()
    received = []
    emulation.vn(1).udp_socket(port=9, on_receive=lambda *a: received.append(sim.now))
    sender = emulation.vn(0).udp_socket()
    install(emulation, NodeChurn(1.0, 1), NodeChurn(3.0, 1, up=True))
    sends = (0.5, 1.5, 3.5)
    for when in sends:
        sim.at(when, sender.send_to, 1, 9, 100)
    sim.run(until=5.0)
    assert len(received) == 3
    latencies = [t - s for t, s in zip(received, sends)]
    assert latencies[0] < 0.010          # short path: 2 x 1 ms
    assert latencies[1] > 0.030          # detour: 2 x 20 ms
    assert latencies[2] < 0.010          # back on the short path
    assert latencies[2] == pytest.approx(latencies[0])


def test_in_flight_packets_on_failed_links_are_dropped():
    """A failure flushes the link's pipes: packets already in flight
    are dropped, never delivered late over a dead link."""
    sim, emulation = build_square()
    received = []
    emulation.vn(1).udp_socket(port=9, on_receive=lambda *a: received.append(sim.now))
    sender = emulation.vn(0).udp_socket()
    # In flight on the c0-r1 hop (1 ms latency) when r1 dies at t=1.0.
    sim.at(0.9995, sender.send_to, 1, 9, 100)
    install(emulation, NodeChurn(1.0, 1))
    sim.run(until=2.0)
    assert received == []


def test_partition_recovery_restores_connectivity():
    sim, emulation = build_square()
    received = []
    emulation.vn(1).udp_socket(port=9, on_receive=lambda *a: received.append(sim.now))
    sender = emulation.vn(0).udp_socket()
    cut = (0, 2)  # both of c0's access links
    install(emulation, Partition(1.0, cut, heal_s=2.0))
    sim.at(1.5, sender.send_to, 1, 9, 100)  # inside the partition: lost
    sim.at(2.5, sender.send_to, 1, 9, 100)  # after healing: delivered
    sim.run(until=4.0)
    assert len(received) == 1
    assert received[0] > 2.5
    assert emulation.monitor.packets_unroutable == 1


def test_weight_change_reaches_routes_at_the_next_reroute():
    """Perfect routing reroutes only on up/down changes: a latency
    change is announced to routing before the link mutates, and a
    source's routes pick it up after the next reroute."""
    sim, emulation = build_square()
    announced = []
    changing = emulation.routing.link_changing

    def spy(link):
        announced.append((link.id, link.latency_s))
        changing(link)

    emulation.routing.link_changing = spy
    install(
        emulation,
        SetLinkParams(1.0, 0, latency_s=0.1),
        LinkDown(2.0, 3),
        LinkUp(2.5, 3),
    )
    assert [hop.dst for hop in emulation.routing.route(0, 3)] == [1, 3]
    sim.run(until=1.5)
    assert announced == [(0, 0.001)]
    assert emulation.topology.links[0].latency_s == 0.1
    assert [hop.dst for hop in emulation.routing.route(0, 3)] == [1, 3]
    sim.run(until=3.0)
    assert [hop.dst for hop in emulation.routing.route(0, 3)] == [2, 3]


def test_perturbation_changes_latencies_within_bounds():
    topology = ring_topology(num_routers=6, vns_per_router=2)
    sim = Simulator()
    emulation = (
        ExperimentPipeline(sim)
        .create(topology)
        .distill(DistillationMode.HOP_BY_HOP)
        .assign(1)
        .bind(1)
        .run(EmulationConfig.reference())
    )
    originals = {
        link_id: link.latency_s
        for link_id, link in emulation.topology.links.items()
    }
    applier = install(
        emulation,
        Perturbation(
            start_s=1.0, stop_s=4.0, period_s=1.0,
            link_fraction=0.25, latency_scale=(1.0, 1.25),
        ),
    )
    sim.run(until=3.5)
    assert applier.perturbations_applied == 3
    applied_sets = logged(applier, "perturbation")
    assert len(applied_sets) == 3
    assert all(len(chosen) == round(0.25 * len(originals)) for chosen in applied_sets)
    for link_id, link in emulation.topology.links.items():
        assert originals[link_id] <= link.latency_s <= 1.25 * originals[link_id] + 1e-12
    # After stop, everything reverts.
    sim.run(until=5.0)
    for link_id, link in emulation.topology.links.items():
        assert link.latency_s == pytest.approx(originals[link_id])


def test_perturbation_does_not_compound():
    sim, emulation = build_square()
    install(
        emulation,
        Perturbation(
            start_s=0.0, stop_s=10.0, period_s=0.5,
            link_fraction=1.0, latency_scale=(1.2, 1.2),
        ),
    )
    sim.run(until=5.1)
    # After 10 rounds of x1.2 the latency is still exactly 1.2x the
    # original (scales apply to originals, not the current value).
    assert emulation.topology.links[0].latency_s == pytest.approx(0.001 * 1.2)


def test_perturbation_with_bandwidth_and_loss():
    sim, emulation = build_square()
    install(
        emulation,
        Perturbation(
            start_s=0.0, stop_s=10.0, period_s=1.0,
            link_fraction=1.0,
            latency_scale=(1.0, 1.0),
            bandwidth_scale=(0.5, 0.5),
            loss_add=(0.1, 0.1),
        ),
    )
    sim.run(until=0.5)
    link = emulation.topology.links[0]
    assert link.bandwidth_bps == pytest.approx(5e6)
    assert link.loss_rate == pytest.approx(0.1)
    pipe = emulation.pipes_of_link(0)[0]
    assert pipe.bandwidth_bps == pytest.approx(5e6)
    assert pipe.loss_rate == pytest.approx(0.1)


def test_random_stress_schedules_outages():
    sim, emulation = build_square()
    plan = stress(
        emulation, start_s=0.0, stop_s=60.0, mean_failure_interval_s=5.0,
        mean_outage_s=1.0,
    )
    downs = [e for e in plan.events if isinstance(e, LinkDown)]
    ups = [e for e in plan.events if isinstance(e, LinkUp)]
    outages = len(downs)
    assert outages > 3
    assert len(ups) == outages
    # Each outage is a down/up pair on one link, recovering by stop_s.
    for down, up in zip(downs, ups):
        assert down.link_id == up.link_id
        assert down.time_s <= up.time_s <= 60.0
    applier = FaultApplier(emulation, plan).install()
    sim.run(until=61.0)
    assert len(logged(applier, "link_down")) == outages
    # Everything recovered by the end.
    assert all(link.up for link in emulation.topology.links.values())


def test_random_stress_respects_protected_links():
    sim, emulation = build_square()
    protected = [0, 1]
    plan = stress(
        emulation, start_s=0.0, stop_s=120.0, mean_failure_interval_s=2.0,
        mean_outage_s=100.0, protect=protected,
    )
    assert all(
        event.link_id not in protected
        for event in plan.events
        if isinstance(event, LinkDown)
    )
    FaultApplier(emulation, plan).install()
    sim.run(until=60.0)
    for link_id in protected:
        assert emulation.topology.links[link_id].up
    with pytest.raises(ValueError):
        stress(emulation, start_s=0.0, stop_s=10.0, protect=[0, 1, 2, 3])


def test_random_stress_with_perturbation_restores_originals():
    """After the stress window closes, every link is up and every
    perturbed parameter (latency, bandwidth, loss) is back at its
    original value — on the topology link AND its pipes."""
    sim, emulation = build_square()
    originals = {
        link_id: (link.bandwidth_bps, link.latency_s, link.loss_rate)
        for link_id, link in emulation.topology.links.items()
    }
    plan = stress(
        emulation, start_s=0.0, stop_s=20.0, mean_failure_interval_s=3.0,
        mean_outage_s=1.0,
        perturbation=Perturbation(
            start_s=0.0, stop_s=20.0, period_s=2.0, link_fraction=1.0,
            latency_scale=(1.1, 1.5),
            bandwidth_scale=(0.5, 0.9),
            loss_add=(0.0, 0.2),
        ),
    )
    assert isinstance(plan.events[-1], Perturbation)
    FaultApplier(emulation, plan).install()
    sim.run(until=10.0)
    # Mid-window the perturbation has visibly moved something.
    assert any(
        emulation.topology.links[link_id].latency_s != pytest.approx(lat)
        for link_id, (_, lat, _) in originals.items()
    )
    sim.run(until=25.0)
    assert all(link.up for link in emulation.topology.links.values())
    for link_id, (bw, lat, loss) in originals.items():
        link = emulation.topology.links[link_id]
        assert link.bandwidth_bps == pytest.approx(bw)
        assert link.latency_s == pytest.approx(lat)
        assert link.loss_rate == pytest.approx(loss)
        for pipe in emulation.pipes_of_link(link_id):
            assert pipe.bandwidth_bps == pytest.approx(bw)
            assert pipe.latency_s == pytest.approx(lat)
            assert pipe.loss_rate == pytest.approx(loss)


def test_random_stress_deterministic_given_seed():
    _sim, emulation = build_square()
    plans = [
        random_stress(
            random.Random(9), emulation.topology.links, 0.0, 100.0,
            mean_failure_interval_s=7.0,
        )
        for _ in range(2)
    ]
    assert plans[0].events
    assert plans[0] == plans[1]
    # The plan is spec-portable: it survives the JSON round trip.
    assert FaultPlan.from_json(plans[0].to_json()) == plans[0]


def test_service_survives_random_stress():
    """A TCP transfer across the redundant square completes despite
    randomized outages (the redundancy does its job)."""
    from repro.apps.netperf import TcpStream

    sim, emulation = build_square()
    plan = stress(
        emulation, start_s=1.0, stop_s=30.0, mean_failure_interval_s=4.0,
        mean_outage_s=1.0, protect=[],
    )
    FaultApplier(emulation, plan).install()
    stream = TcpStream(emulation, 0, 1)
    sim.run(until=60.0)
    assert stream.bytes_received > 1_000_000
