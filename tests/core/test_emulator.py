"""Integration-level tests for the Emulation fabric."""

import pytest

from repro.core import (
    DistillationMode,
    EmulationConfig,
    ExperimentPipeline,
)
from repro.engine import Simulator
from repro.topology import chain_topology, dumbbell_topology, star_topology


def build(topology, config=None, cores=1, hosts=1, seed=0):
    sim = Simulator()
    emulation = (
        ExperimentPipeline(sim, seed=seed)
        .create(topology)
        .distill(DistillationMode.HOP_BY_HOP)
        .assign(cores)
        .bind(hosts)
        .run(config or EmulationConfig())
    )
    return sim, emulation


def test_pipes_created_per_direction():
    topology = star_topology(4)
    sim, emulation = build(topology)
    assert len(emulation.pipes) == 2 * topology.num_links
    fwd, rev = emulation.pipes_of_link(0)
    assert fwd.src_node == rev.dst_node
    assert fwd.dst_node == rev.src_node


def test_udp_end_to_end_through_core():
    sim, emulation = build(
        chain_topology(1, hops=2, bandwidth_bps=10e6, latency_s=0.010)
    )
    received = []
    emulation.vn(1).udp_socket(
        port=9, on_receive=lambda *args: received.append(sim.now)
    )
    sender = emulation.vn(0).udp_socket()
    sender.send_to(1, 9, 1000)
    sim.run(until=1.0)
    assert len(received) == 1
    # 2 hops at 5 ms each + ~0.8 ms serialization per hop + physical.
    assert 0.011 < received[0] < 0.015


def test_reference_mode_exact_delivery_time():
    config = EmulationConfig.reference()
    sim, emulation = build(
        chain_topology(1, hops=2, bandwidth_bps=10e6, latency_s=0.010),
        config,
    )
    received = []
    emulation.vn(1).udp_socket(
        port=9, on_receive=lambda *args: received.append(sim.now)
    )
    emulation.vn(0).udp_socket().send_to(1, 9, 1000)
    sim.run(until=1.0)
    # Exactly 2 * (latency + serialization of 1040 wire bytes).
    expected = 2 * (0.005 + 1040 * 8 / 10e6)
    assert received[0] == pytest.approx(expected)
    assert emulation.accuracy_report().max_error_s == 0.0


def test_unroutable_packet_counted():
    sim, emulation = build(star_topology(3))
    emulation.topology.link_between(0, 1).up = False
    emulation.routing.invalidate()
    emulation.vn(0).udp_socket().send_to(1, 9, 100)
    sim.run(until=0.5)
    assert emulation.monitor.packets_unroutable == 1


def test_congestion_shares_bottleneck():
    """Two TCP flows across a dumbbell split the bottleneck fairly."""
    topology = dumbbell_topology(
        clients_per_side=2, bottleneck_bandwidth_bps=2e6
    )
    sim, emulation = build(topology, EmulationConfig.reference())
    # Clients 0,1 on the left; 2,3 on the right.
    left = [v for v in emulation.vns if topology.node(v.node_id).attrs["side"] == "left"]
    right = [v for v in emulation.vns if topology.node(v.node_id).attrs["side"] == "right"]
    conns = []
    for sender, receiver in zip(left, right):
        receiver.tcp_listen(80, lambda c: None)
        conns.append(
            sender.tcp_connect(
                receiver.vn_id, 80, on_established=lambda c: c.send(10_000_000)
            )
        )
    sim.run(until=10.0)
    rates = [c.bytes_acked * 8 / 10.0 for c in conns]
    total = sum(rates)
    assert total == pytest.approx(2e6, rel=0.15)
    assert min(rates) / max(rates) > 0.6  # rough fairness


def test_virtual_drops_accounted():
    topology = dumbbell_topology(
        clients_per_side=4, bottleneck_bandwidth_bps=1e6
    )
    sim, emulation = build(topology, EmulationConfig.reference())
    left = [v for v in emulation.vns if topology.node(v.node_id).attrs["side"] == "left"]
    right = [v for v in emulation.vns if topology.node(v.node_id).attrs["side"] == "right"]
    for sender, receiver in zip(left, right):
        receiver.tcp_listen(80, lambda c: None)
        sender.tcp_connect(
            receiver.vn_id, 80, on_established=lambda c: c.send(5_000_000)
        )
    sim.run(until=5.0)
    assert emulation.virtual_drops() > 0
    report = emulation.accuracy_report()
    assert report.virtual_drops == emulation.virtual_drops()


def test_set_link_params_changes_behavior():
    topology = chain_topology(1, hops=1, bandwidth_bps=10e6, latency_s=0.010)
    sim, emulation = build(topology, EmulationConfig.reference())
    received = []
    emulation.vn(1).udp_socket(
        port=9, on_receive=lambda *args: received.append(sim.now)
    )
    sender = emulation.vn(0).udp_socket()
    sender.send_to(1, 9, 1000)
    sim.at(1.0, lambda: emulation.set_link_params(0, latency_s=0.100))
    sim.at(2.0, sender.send_to, 1, 9, 1000)
    sim.run()
    assert received[0] - 0.0 < 0.02
    assert received[1] - 2.0 > 0.10


def test_link_failure_reroutes():
    """A square topology: failing the short path shifts traffic to
    the long one with higher latency."""
    import repro.topology as rt

    topology = rt.Topology()
    c0 = topology.add_node(rt.NodeKind.CLIENT)
    r1 = topology.add_node(rt.NodeKind.STUB)
    r2 = topology.add_node(rt.NodeKind.STUB)
    c3 = topology.add_node(rt.NodeKind.CLIENT)
    fast_a = topology.add_link(c0.id, r1.id, 10e6, 0.001)
    topology.add_link(r1.id, c3.id, 10e6, 0.001)
    topology.add_link(c0.id, r2.id, 10e6, 0.020)
    topology.add_link(r2.id, c3.id, 10e6, 0.020)

    sim, emulation = build(topology, EmulationConfig.reference())
    received = []
    emulation.vn(1).udp_socket(
        port=9, on_receive=lambda *args: received.append(sim.now)
    )
    sender = emulation.vn(0).udp_socket()
    sender.send_to(1, 9, 100)
    sim.at(1.0, emulation.set_link_up, fast_a.id, False)
    sim.at(2.0, sender.send_to, 1, 9, 100)
    sim.at(3.0, emulation.set_link_up, fast_a.id, True)
    sim.at(4.0, sender.send_to, 1, 9, 100)
    sim.run()
    assert len(received) == 3
    assert received[0] - 0.0 < 0.01  # fast path
    assert received[1] - 2.0 > 0.04  # rerouted to slow path
    assert received[2] - 4.0 < 0.01  # recovered


def test_multi_core_tunneling():
    """A 2-hop star split across 2 cores tunnels descriptors for
    flows whose access pipes live on different cores."""
    from repro.core.assign import assign_by_vn_groups
    from repro.core.bind import bind_vns

    topology = star_topology(4, bandwidth_bps=10e6, latency_s=0.005)
    clients = sorted(n.id for n in topology.clients())
    assignment = assign_by_vn_groups(topology, [clients[:2], clients[2:]])
    sim = Simulator()
    from repro.core.emulator import Emulation

    emulation = Emulation(
        sim,
        topology,
        EmulationConfig(),
        assignment=assignment,
        binding=bind_vns(topology, num_hosts=2, num_cores=2),
        seed=0,
    )
    received = []
    emulation.vn(2).udp_socket(
        port=9, on_receive=lambda *args: received.append(sim.now)
    )
    emulation.vn(0).udp_socket().send_to(2, 9, 1000)  # crosses cores
    sim.run(until=1.0)
    assert received
    assert emulation.monitor.tunnels >= 1
    assert emulation.cores[0].tunnels_sent + emulation.cores[1].tunnels_sent >= 1


def test_same_attachment_vn_pair_delivers_directly():
    """Two VNs bound to the same topology node exchange packets with
    an empty pipe route."""
    import repro.topology as rt
    from repro.core.assign import single_core
    from repro.core.bind import Binding
    from repro.core.emulator import Emulation

    topology = rt.star_topology(2)
    client = sorted(n.id for n in topology.clients())[0]
    binding = Binding([client, client], [0, 0], [0])
    sim = Simulator()
    emulation = Emulation(
        sim,
        topology,
        EmulationConfig(),
        assignment=single_core(topology),
        binding=binding,
        seed=0,
    )
    received = []
    emulation.vn(1).udp_socket(
        port=9, on_receive=lambda *args: received.append(sim.now)
    )
    emulation.vn(0).udp_socket().send_to(1, 9, 100)
    sim.run(until=0.5)
    assert len(received) == 1


def test_accuracy_report_fields():
    sim, emulation = build(chain_topology(2, hops=2))
    for pair in range(2):
        emulation.vn(2 * pair + 1).udp_socket(port=9, on_receive=lambda *a: None)
        emulation.vn(2 * pair).udp_socket().send_to(2 * pair + 1, 9, 500)
    sim.run(until=1.0)
    report = emulation.accuracy_report()
    assert report.packets_delivered == 2
    assert report.packets_entered == 2
    assert report.max_error_s <= 3 * emulation.config.core_spec.tick_s
    assert "delivered=2" in str(report)


def test_emulation_is_deterministic_given_seed():
    """Two identical runs produce identical packet accounting."""
    import random as _random

    def run_once():
        topology = dumbbell_topology(
            clients_per_side=3, bottleneck_bandwidth_bps=2e6
        )
        sim, emulation = build(topology, seed=5)
        from repro.apps.netperf import TcpStream

        # VNs 0-2 are the left clients, 3-5 the right.
        streams = [TcpStream(emulation, 0, 3), TcpStream(emulation, 1, 4)]
        sim.run(until=3.0)
        return (
            emulation.monitor.packets_delivered,
            emulation.virtual_drops(),
            tuple(stream.bytes_received for stream in streams),
            sim.events_dispatched,
        )

    assert run_once() == run_once()


def test_red_qdisc_selected_from_link_attrs():
    from repro.core.queues import DropTailQueue, REDQueue

    topology = star_topology(2)
    link = next(iter(topology.links.values()))
    link.attrs["qdisc"] = "red"
    link.attrs["red_max_p"] = 0.5
    sim, emulation = build(topology)
    red_pipe = emulation.pipes_of_link(link.id)[0]
    other = emulation.pipes_of_link(1)[0]
    assert isinstance(red_pipe.qdisc, REDQueue)
    assert red_pipe.qdisc.max_p == 0.5
    assert isinstance(other.qdisc, DropTailQueue)


def test_reference_config_overrides():
    config = EmulationConfig.reference(routing_weight="hops", num_domains=1)
    assert config.tick_s == 0.0
    assert not config.model_physical
    assert config.exact
    assert config.routing_weight == "hops"
    assert config.num_domains == 1


def test_custom_tcp_params_flow_to_stacks():
    from repro.net.tcp import TcpParams

    config = EmulationConfig.reference()
    config.tcp_params = TcpParams(mss=500)
    sim, emulation = build(star_topology(2), config)
    assert emulation.vn(0).stack.tcp_params.mss == 500


def test_config_validate_rejects_bad_values():
    with pytest.raises(ValueError, match="tick_s"):
        EmulationConfig(tick_s=-1e-4)
    with pytest.raises(ValueError, match="num_domains"):
        EmulationConfig(num_domains=-1)
    with pytest.raises(ValueError, match="backend"):
        EmulationConfig(backend="threads")
    with pytest.raises(ValueError, match="routing_weight"):
        EmulationConfig(routing_weight="vibes")


def test_config_validate_catches_post_construction_mutation():
    config = EmulationConfig()
    config.workers = -1
    with pytest.raises(ValueError, match="workers"):
        config.validate()


def test_set_link_params_rejects_unknown_knobs():
    sim, emulation = build(star_topology(2))
    fwd, _rev = emulation.pipes_of_link(0)
    before = fwd.latency_s
    with pytest.raises(ValueError) as err:
        emulation.set_link_params(0, latency_ms=5)
    # The error lists the valid knobs and no pipe was touched.
    assert "bandwidth_bps" in str(err.value)
    assert "latency_s" in str(err.value)
    assert fwd.latency_s == before


def test_rejected_set_link_params_leaves_both_directions_unchanged():
    sim, emulation = build(star_topology(2))
    pipes = emulation.pipes_of_link(0)
    before = [(p.bandwidth_bps, p.latency_s, p.loss_rate) for p in pipes]
    with pytest.raises(ValueError, match="latency"):
        emulation.set_link_params(0, bandwidth_bps=5e6, latency_s=-1)
    assert [(p.bandwidth_bps, p.latency_s, p.loss_rate) for p in pipes] == before


def test_pipe_set_params_rejects_unknown_knobs():
    sim, emulation = build(star_topology(2))
    fwd, _rev = emulation.pipes_of_link(0)
    with pytest.raises(ValueError, match="queue_limit"):
        fwd.set_params(queue_limits=10)


def test_route_lookup_memo_returns_same_tuple():
    sim, emulation = build(chain_topology(1, hops=3))
    first = emulation.lookup_pipes(0, 1)
    second = emulation.lookup_pipes(0, 1)
    assert first is second  # memo hit: no recompute, no new tuple


def test_route_lookup_memo_invalidated_by_routing_change():
    sim, emulation = build(chain_topology(1, hops=3))
    before = emulation.lookup_pipes(0, 1)
    generation = emulation._route_gen
    emulation.routing.invalidate()
    assert emulation._route_gen == generation + 1
    after = emulation.lookup_pipes(0, 1)
    assert after is not before  # stale entry overwritten
    assert [pipe.id for pipe in after] == [pipe.id for pipe in before]
