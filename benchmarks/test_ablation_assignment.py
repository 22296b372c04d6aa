"""Assignment ablation — how much partitioning quality matters.

Table 1 shows cross-core traffic dominating multi-core scalability;
the paper's defense is the greedy k-clusters assignment ("properly
partitioning the topology to minimize the number of inter-core packet
crossings") plus, prospectively, dynamic reassignment. This bench
quantifies the chain: random assignment vs. greedy k-clusters on the
offline crossing metric, and the additional win from online dynamic
reassignment under a skewed traffic pattern the static heuristic
cannot anticipate.
"""

import random

import pytest

from repro.apps.netperf import TcpStream
from repro.core import EmulationConfig
from repro.core.assign import (
    Assignment,
    cross_core_hops,
    greedy_k_clusters,
)
from repro.core.bind import Binding
from repro.core.emulator import Emulation
from repro.core.reassign import DynamicReassigner
from repro.engine import Simulator
from repro.routing import CachedRouting
from repro.topology import TransitStubSpec, star_topology, transit_stub_topology


def test_ablation_greedy_vs_random_assignment(benchmark, sink):
    """Offline: fraction of consecutive pipe pairs crossing cores."""

    def run():
        spec = TransitStubSpec(
            transit_nodes_per_domain=4,
            stub_domains_per_transit_node=3,
            stub_nodes_per_domain=4,
            clients_per_stub_node=2,
        )
        topology = transit_stub_topology(spec, random.Random(5))
        routing = CachedRouting(topology)
        clients = sorted(n.id for n in topology.clients())
        rng = random.Random(6)
        routes = [routing.route(*rng.sample(clients, 2)) for _ in range(300)]

        results = {}
        for cores in (2, 4, 8):
            greedy = greedy_k_clusters(topology, cores, random.Random(7))
            shuffler = random.Random(8)
            random_assignment = Assignment(
                cores,
                {
                    link_id: shuffler.randrange(cores)
                    for link_id in topology.links
                },
            )
            results[cores] = (
                cross_core_hops(topology, greedy, routes),
                cross_core_hops(topology, random_assignment, routes),
            )
        return results

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    sink.row("Ablation: crossing fraction, greedy k-clusters vs random")
    sink.row(f"{'cores':>6} {'greedy':>8} {'random':>8}")
    for cores, (greedy_frac, random_frac) in sorted(results.items()):
        sink.row(f"{cores:>6} {greedy_frac:>8.3f} {random_frac:>8.3f}")
    for cores, (greedy_frac, random_frac) in results.items():
        # Random crossings approach 1 - 1/k; greedy stays well below.
        assert random_frac > (1 - 1 / cores) * 0.7
        assert greedy_frac < 0.75 * random_frac


def test_ablation_dynamic_reassignment_online(benchmark, sink):
    """Online: a pessimal static assignment self-corrects."""

    def run():
        topology = star_topology(8, bandwidth_bps=10e6, latency_s=0.005)
        clients = sorted(n.id for n in topology.clients())
        link_to_core = {}
        for link in topology.links.values():
            client_end = link.a if link.a in clients else link.b
            link_to_core[link.id] = clients.index(client_end) % 2
        sim = Simulator()
        emulation = Emulation(
            sim,
            topology,
            EmulationConfig(),
            assignment=Assignment(2, link_to_core),
            binding=Binding(clients, [vn % 2 for vn in range(8)], [0, 1]),
            seed=0,
        )
        reassigner = DynamicReassigner(emulation, period_s=1.0)
        streams = [TcpStream(emulation, 2 * f, 2 * f + 1) for f in range(4)]
        sim.run(until=1.0)
        early = emulation.monitor.tunnels
        reassigner.start()
        sim.run(until=6.0)
        mark = emulation.monitor.tunnels
        sim.run(until=8.0)
        late_rate = (emulation.monitor.tunnels - mark) / 2.0
        for stream in streams:
            stream.stop()
        return early / 1.0, late_rate, reassigner.moves

    early_rate, late_rate, moves = benchmark.pedantic(run, rounds=1, iterations=1)
    sink.row("Ablation: dynamic reassignment under skewed traffic")
    sink.row(f"  tunnels/s before: {early_rate:.0f}   after: {late_rate:.0f}")
    sink.row(f"  pipes migrated: {moves}")
    assert moves > 0
    assert late_rate < 0.2 * early_rate
