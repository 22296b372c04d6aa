"""Tests for dynamic pipe-to-core reassignment."""

import pytest

from repro.apps.netperf import TcpStream
from repro.core import EmulationConfig
from repro.core.assign import Assignment, single_core
from repro.core.bind import Binding, bind_vns
from repro.core.emulator import Emulation
from repro.core.reassign import DynamicReassigner
from repro.engine import Simulator
from repro.topology import star_topology


def adversarial_emulation():
    """A 2-core star where the static assignment is pessimal: every
    flow's two access pipes live on different cores."""
    topology = star_topology(8, bandwidth_bps=10e6, latency_s=0.005)
    clients = sorted(n.id for n in topology.clients())
    # Interleave ownership: even-indexed access links on core 0, odd
    # on core 1. Flows pair VN 2k -> VN 2k+1, so every flow crosses.
    link_to_core = {}
    for link in topology.links.values():
        client_end = link.a if link.a in clients else link.b
        link_to_core[link.id] = clients.index(client_end) % 2
    assignment = Assignment(2, link_to_core)
    binding = Binding(clients, [vn % 2 for vn in range(8)], [0, 1])
    sim = Simulator()
    emulation = Emulation(
        sim,
        topology,
        EmulationConfig(),
        assignment=assignment,
        binding=binding,
        seed=0,
    )
    return sim, emulation


def test_requires_multiple_cores():
    topology = star_topology(4)
    sim = Simulator()
    emulation = Emulation(
        sim,
        topology,
        EmulationConfig(),
        assignment=single_core(topology),
        binding=bind_vns(topology, num_hosts=1, num_cores=1),
        seed=0,
    )
    with pytest.raises(ValueError):
        DynamicReassigner(emulation)


def test_tracker_observes_crossings():
    sim, emulation = adversarial_emulation()
    reassigner = DynamicReassigner(emulation)
    streams = [TcpStream(emulation, 2 * f, 2 * f + 1) for f in range(4)]
    sim.run(until=1.0)
    assert reassigner.observed_crossings() > 0
    for stream in streams:
        stream.stop()


def test_rebalance_reduces_crossings():
    sim, emulation = adversarial_emulation()
    reassigner = DynamicReassigner(emulation, period_s=1.0)
    streams = [TcpStream(emulation, 2 * f, 2 * f + 1) for f in range(4)]
    reassigner.start()
    sim.run(until=1.0)
    tunnels_early = emulation.monitor.tunnels
    sim.run(until=6.0)
    reassigner.stop()
    # After migration, per-second tunneling collapses.
    window_start_tunnels = emulation.monitor.tunnels
    sim.run(until=8.0)
    late_rate = (emulation.monitor.tunnels - window_start_tunnels) / 2.0
    early_rate = tunnels_early / 1.0
    assert reassigner.moves > 0
    assert late_rate < 0.2 * early_rate
    for stream in streams:
        stream.stop()


def test_moves_keep_load_bounded():
    sim, emulation = adversarial_emulation()
    reassigner = DynamicReassigner(
        emulation, period_s=0.5, load_imbalance_limit=1.5
    )
    streams = [TcpStream(emulation, 2 * f, 2 * f + 1) for f in range(4)]
    reassigner.start()
    sim.run(until=5.0)
    reassigner.stop()
    loads = [0, 0]
    for pipe in emulation.pipes.logical():
        loads[pipe.owner] += 1
    assert max(loads) <= 1.5 * len(emulation.pipes) / 2
    for stream in streams:
        stream.stop()


def test_traffic_still_flows_after_migration():
    sim, emulation = adversarial_emulation()
    reassigner = DynamicReassigner(emulation, period_s=0.5)
    stream = TcpStream(emulation, 0, 1)
    reassigner.start()
    sim.run(until=4.0)
    stream.mark()
    sim.run(until=8.0)
    reassigner.stop()
    # Still saturating its 10 Mb/s path after pipes moved cores.
    assert stream.throughput_bps() > 7e6
    report = emulation.accuracy_report()
    assert report.packets_delivered > 1000
