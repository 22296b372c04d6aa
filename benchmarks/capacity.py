"""Shared capacity-experiment machinery for Fig. 4 and Table 1."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.obs import RunReport

from repro.apps.netperf import TcpStream
from repro.core import DistillationMode, EmulationConfig, ExperimentPipeline
from repro.core.assign import assign_by_vn_groups
from repro.core.emulator import Emulation
from repro.engine import Simulator
from repro.hardware.calibration import GIGABIT_EDGE_SPEC
from repro.topology import chain_topology, star_topology


@dataclass
class CapacityResult:
    flows: int
    hops: int
    pps: float
    cpu_utilization: float
    physical_drops: int
    report: Optional[RunReport] = field(default=None, repr=False)


def measure_chain_capacity(
    flows: int,
    hops: int,
    warm_s: float = 0.5,
    measure_s: float = 1.0,
) -> CapacityResult:
    """The Sec. 3.2 experiment: ``flows`` netperf TCP senders through
    one core over ``hops``-pipe paths of 10 Mb/s, 10 ms end to end;
    gigabit edge links so the core is the only physical bottleneck."""
    sim = Simulator()
    emulation = (
        ExperimentPipeline(sim)
        .create(
            chain_topology(flows, hops=hops, bandwidth_bps=10e6, latency_s=0.010)
        )
        .distill(DistillationMode.HOP_BY_HOP)
        .assign(1)
        .bind(10)
        .run(EmulationConfig(edge_spec=GIGABIT_EDGE_SPEC))
    )
    streams = [
        TcpStream(emulation, 2 * flow, 2 * flow + 1) for flow in range(flows)
    ]
    sim.run(until=warm_s)
    emulation.monitor.begin_window(sim.now)
    busy_before = emulation.cores[0].cpu_busy_s
    sim.run(until=warm_s + measure_s)
    pps = emulation.monitor.window_pps(sim.now)
    utilization = (emulation.cores[0].cpu_busy_s - busy_before) / measure_s
    for stream in streams:
        stream.stop()
    return CapacityResult(
        flows=flows,
        hops=hops,
        pps=pps,
        cpu_utilization=utilization,
        physical_drops=emulation.monitor.physical_drops,
        report=emulation.run_report(name=f"fig4-capacity-{flows}fx{hops}h"),
    )


@dataclass
class MultiCoreResult:
    cross_fraction: float
    pps: float
    tunnels: int


def measure_multicore_throughput(
    num_cores: int,
    cross_fraction: float,
    num_vns: int = 280,
    pipe_bps: float = 10e6,
    num_hosts: int = 20,
    warm_s: float = 0.5,
    measure_s: float = 0.5,
) -> MultiCoreResult:
    """The Table 1 experiment: a star topology of 5 ms access pipes
    split across ``num_cores`` by VN group; ``cross_fraction`` of
    sender->receiver pairs cross core boundaries.

    The offered load (num_vns/2 senders at ``pipe_bps``) must exceed
    the aggregate core capacity for the table to show saturation —
    the paper uses 560 senders at 10 Mb/s; the scaled default uses
    140 senders at 40 Mb/s for the same offered packet rate.
    """
    assert num_vns % (2 * num_cores) == 0
    assert num_hosts % num_cores == 0
    sim = Simulator()
    topology = star_topology(num_vns, bandwidth_bps=pipe_bps, latency_s=0.005)
    clients = sorted(node.id for node in topology.clients())
    per_core = num_vns // num_cores
    groups = [
        clients[core * per_core : (core + 1) * per_core]
        for core in range(num_cores)
    ]
    assignment = assign_by_vn_groups(topology, groups)
    # Bind hosts so each host's VNs live on the core owning their
    # pipes (the paper binds each physical node to a single core; a
    # misaligned binding would tunnel every packet at ingress).
    from repro.core.bind import Binding

    hosts_per_core = num_hosts // num_cores
    vns_per_host = num_vns // num_hosts
    binding = Binding(
        clients,
        [vn // vns_per_host for vn in range(num_vns)],
        [host // hosts_per_core for host in range(num_hosts)],
    )
    emulation = Emulation(
        sim,
        topology,
        EmulationConfig(edge_spec=GIGABIT_EDGE_SPEC),
        assignment=assignment,
        binding=binding,
        seed=0,
    )

    # Within each core group: the first half are senders, the second
    # half receivers. A "local" flow pairs within the group; a
    # "cross" flow sends to the next group's receiver slot.
    # Within each core group: the first half send, the second half
    # receive. The first ``cross_fraction`` of each group's sender
    # slots target the *next* group's matching receiver slot, the
    # rest stay local — every receiver has exactly one sender, so
    # (as in the paper) there is no contention for last-hop pipes.
    senders_per_core = per_core // 2
    cross_slots = round(cross_fraction * senders_per_core)
    streams = []
    for core in range(num_cores):
        base = core * per_core
        for offset in range(senders_per_core):
            sender_vn = base + offset
            target_core = (core + 1) % num_cores if offset < cross_slots else core
            receiver_vn = target_core * per_core + senders_per_core + offset
            streams.append(TcpStream(emulation, sender_vn, receiver_vn))

    sim.run(until=warm_s)
    emulation.monitor.begin_window(sim.now)
    sim.run(until=warm_s + measure_s)
    pps = emulation.monitor.window_pps(sim.now)
    for stream in streams:
        stream.stop()
    return MultiCoreResult(
        cross_fraction=cross_fraction,
        pps=pps,
        tunnels=emulation.monitor.tunnels,
    )
