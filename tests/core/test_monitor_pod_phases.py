"""Tests for the monitor, the pipe ownership directory, and the
five-phase pipeline builder."""

import pytest

from repro.core import (
    DistillationMode,
    EmulationConfig,
    EmulationMonitor,
    ExperimentPipeline,
)
from repro.core.assign import greedy_k_clusters
from repro.core.pod import PipeOwnershipDirectory
from repro.engine import Simulator
from repro.topology import TopologyError, ring_topology, star_topology


# ---------------------------------------------------------------- monitor

def test_monitor_error_stats():
    monitor = EmulationMonitor()
    monitor.packet_exited(1.0, 1.0001)
    monitor.packet_exited(2.0, 2.0003)
    report = monitor.report()
    assert report.packets_delivered == 2
    assert report.max_error_s == pytest.approx(0.0003)
    assert report.mean_error_s == pytest.approx(0.0002)


def test_monitor_window_pps():
    monitor = EmulationMonitor()
    for _ in range(5):
        monitor.packet_exited(0.0, 0.0)
    monitor.begin_window(10.0)
    for _ in range(100):
        monitor.packet_exited(0.0, 0.0)
    assert monitor.window_packets() == 100
    assert monitor.window_pps(12.0) == pytest.approx(50.0)


def test_monitor_sampling_cap():
    monitor = EmulationMonitor(max_samples=10)
    for index in range(50):
        monitor.packet_exited(0.0, index * 1e-6)
    assert len(monitor.error_samples) == 10


def test_monitor_drop_taxonomy():
    monitor = EmulationMonitor()
    monitor.ring_drop()
    monitor.egress_drop()
    monitor.uplink_drop()
    monitor.uplink_drop()
    assert monitor.physical_drops == 4
    report = monitor.report(virtual_drops=7)
    assert report.physical_drops == 4
    assert report.virtual_drops == 7


# ---------------------------------------------------------------- POD

def test_pod_ownership_and_crossings():
    topology = star_topology(4)
    assignment = greedy_k_clusters(topology, 2, __import__("random").Random(1))
    pod = PipeOwnershipDirectory(assignment)
    sim = Simulator()
    emulation = (
        ExperimentPipeline(sim)
        .create(topology)
        .distill()
        .assign(assignment=assignment)
        .bind(1)
        .run(EmulationConfig.reference())
    )
    pipes = emulation.lookup_pipes(0, 3)
    assert pipes is not None
    crossings = pod.crossings(pipes)
    owners = {pod.owner_of(pipe) for pipe in pipes}
    assert crossings == len(owners) - 1 if len(pipes) == 2 else crossings >= 0
    load = pod.load_by_core(emulation.pipes.logical())
    assert sum(load) == len(emulation.pipes)


# ---------------------------------------------------------------- phases

def test_pipeline_full_flow():
    sim = Simulator()
    pipeline = (
        ExperimentPipeline(sim, seed=3)
        .create(ring_topology(num_routers=4, vns_per_router=2))
        .distill(DistillationMode.WALK_IN, walk_in=1)
        .assign(num_cores=2)
        .bind(num_hosts=2)
    )
    emulation = pipeline.run()
    assert emulation.num_vns == 8
    assert len(emulation.cores) == 2
    assert len(emulation.hosts) == 2
    assert pipeline.distillation.mesh_links == 6  # C(4,2) ring mesh


def test_pipeline_defaults_fill_in():
    sim = Simulator()
    emulation = (
        ExperimentPipeline(sim)
        .create(star_topology(4))
        .run()
    )
    assert emulation.num_vns == 4
    assert len(emulation.cores) == 1


def test_pipeline_create_required_first():
    sim = Simulator()
    with pytest.raises(TopologyError):
        ExperimentPipeline(sim).distill()


def test_pipeline_rejects_topology_without_clients():
    import repro.topology as rt

    topology = rt.Topology()
    topology.add_node(rt.NodeKind.STUB)
    topology.add_node(rt.NodeKind.STUB)
    topology.add_link(0, 1, 1e6, 1e-3)
    sim = Simulator()
    with pytest.raises(TopologyError):
        ExperimentPipeline(sim).create(topology)


def test_pipeline_gml_entry():
    gml = """
    graph [
      node [ id 0 kind "client" ]
      node [ id 1 kind "client" ]
      edge [ source 0 target 1 bandwidth 1000000.0 latency 0.005 ]
    ]
    """
    sim = Simulator()
    emulation = ExperimentPipeline(sim).create_gml(gml).run()
    assert emulation.num_vns == 2


def test_pipeline_traffic_flows_end_to_end():
    sim = Simulator()
    emulation = (
        ExperimentPipeline(sim)
        .create(ring_topology(num_routers=4, vns_per_router=2))
        .distill(DistillationMode.WALK_IN, walk_in=1)
        .assign(2)
        .bind(2)
        .run()
    )
    received = []
    emulation.vn(7).udp_socket(port=9, on_receive=lambda *a: received.append(1))
    emulation.vn(0).udp_socket().send_to(7, 9, 500)
    sim.run(until=1.0)
    assert received
