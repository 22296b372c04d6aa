"""Greedy k-clusters against a reference model.

``reference_greedy_k_clusters`` is the original rescanning
implementation, kept verbatim as the oracle: it rescans
``sorted(cluster)`` for every link it places and re-seeds with
``min(unassigned)``. The frontier walk in
:func:`repro.core.assign.greedy_k_clusters` must return the same
``link_to_core`` on every input, and the same errors, except where a
link shortage used to surface as a misleading empty-core error.
"""

import random
from typing import Dict, List, Optional, Set

import pytest

from repro import Scenario
from repro.core.assign import Assignment, greedy_k_clusters, single_core
from repro.core.distill import distill
from repro.topology import (
    Topology,
    TopologyError,
    TransitStubSpec,
    dumbbell_topology,
    ring_topology,
    star_topology,
    transit_stub_topology,
)
from repro.topology.graph import Link


def reference_greedy_k_clusters(
    topology: Topology,
    num_cores: int,
    rng: random.Random,
) -> Assignment:
    """The original quadratic greedy k-clusters, the oracle."""
    if num_cores < 1:
        raise TopologyError("need at least one core")
    if num_cores == 1:
        return single_core(topology)
    node_ids = sorted(topology.nodes)
    if len(node_ids) < num_cores:
        raise TopologyError(
            f"{num_cores} cores but only {len(node_ids)} topology nodes"
        )
    seeds = rng.sample(node_ids, num_cores)
    cluster_nodes: List[Set[int]] = [{seed} for seed in seeds]
    link_to_core: Dict[int, int] = {}
    unassigned: Set[int] = set(topology.links)

    def adjacent_unassigned(cluster: Set[int]) -> Optional[Link]:
        for node_id in sorted(cluster):
            for link in topology.links_of(node_id):
                if link.id in unassigned:
                    return link
        return None

    while unassigned:
        for core_index in range(num_cores):
            if not unassigned:
                break
            link = adjacent_unassigned(cluster_nodes[core_index])
            if link is None:
                link = topology.links[min(unassigned)]
            link_to_core[link.id] = core_index
            unassigned.discard(link.id)
            cluster_nodes[core_index].add(link.a)
            cluster_nodes[core_index].add(link.b)
    return Assignment(num_cores, link_to_core, topology=topology)


#: The perfbench ``transit_churn`` layout: 3,020 nodes, distilled
#: hop-by-hop to 4,083 links.
PERFBENCH_SPEC = dict(
    transit_domains=2,
    transit_nodes_per_domain=10,
    stub_domains_per_transit_node=5,
    stub_nodes_per_domain=10,
    clients_per_stub_node=2,
)


def perfbench_layout() -> Topology:
    topology = transit_stub_topology(
        TransitStubSpec(**PERFBENCH_SPEC),
        random.Random("perfbench:transit_churn:0"),
    )
    return distill(topology).topology


def assert_same(topology: Topology, cores: int, seed: int) -> None:
    expected = reference_greedy_k_clusters(topology, cores, random.Random(seed))
    actual = greedy_k_clusters(topology, cores, random.Random(seed))
    assert actual.num_cores == expected.num_cores
    assert actual.link_to_core == expected.link_to_core


@pytest.mark.parametrize("cores", [2, 3, 4, 8])
@pytest.mark.parametrize("seed", [0, 1, 7, 42])
def test_matches_reference_on_ring_and_star(cores, seed):
    assert_same(ring_topology(num_routers=6, vns_per_router=3), cores, seed)
    assert_same(ring_topology(num_routers=12, vns_per_router=1), cores, seed)
    assert_same(star_topology(12), cores, seed)


@pytest.mark.parametrize("graph_seed", [0, 3, 11])
@pytest.mark.parametrize("cores", [2, 3, 4, 8])
def test_matches_reference_on_transit_stub(graph_seed, cores):
    spec = TransitStubSpec(
        transit_domains=2,
        transit_nodes_per_domain=4,
        stub_domains_per_transit_node=3,
        stub_nodes_per_domain=5,
        clients_per_stub_node=2,
    )
    topology = transit_stub_topology(spec, random.Random(graph_seed))
    for seed in (graph_seed, graph_seed + 100):
        assert_same(topology, cores, seed)


def test_matches_reference_on_perfbench_layout():
    topology = perfbench_layout()
    assert (topology.num_nodes, topology.num_links) == (3020, 4083)
    for cores, seed in ((4, 0), (3, 5)):
        assert_same(topology, cores, seed)


def test_matches_reference_on_10k_node_transit_stub():
    spec = TransitStubSpec(
        transit_domains=4,
        transit_nodes_per_domain=10,
        stub_domains_per_transit_node=5,
        stub_nodes_per_domain=13,
        clients_per_stub_node=3,
    )
    topology = transit_stub_topology(spec, random.Random(1))
    assert topology.num_nodes >= 10_000
    assert_same(topology, 8, 1)


def test_matches_reference_on_disconnected_islands():
    """More components than cores: the re-seed path runs every round."""
    topology = Topology()
    for _ in range(14):
        topology.add_node()
    for pair in range(7):
        topology.add_link(2 * pair, 2 * pair + 1, 1e6, 1e-3)
    for seed in range(6):
        for cores in (2, 3, 4):
            assert_same(topology, cores, seed)


@pytest.mark.parametrize("cores", [0, -1, 1, 7])
def test_errors_match_reference(cores):
    topology = star_topology(5)  # 6 nodes, 5 links
    try:
        expected = reference_greedy_k_clusters(topology, cores, random.Random(0))
    except TopologyError as error:
        with pytest.raises(TopologyError, match=str(error)):
            greedy_k_clusters(topology, cores, random.Random(0))
    else:
        actual = greedy_k_clusters(topology, cores, random.Random(0))
        assert actual.link_to_core == expected.link_to_core


def test_more_cores_than_links_names_the_link_count():
    # 4 nodes, 3 links: the reference placed all 3 and then failed on
    # an empty core, with a hint about a parameter no caller accepts.
    with pytest.raises(TopologyError, match="only 3 topology links"):
        Scenario.from_topology(dumbbell_topology(1)).assign(4).build()
    with pytest.raises(TopologyError, match="own no links"):
        reference_greedy_k_clusters(dumbbell_topology(1), 4, random.Random(0))


def test_links_of_calls_scale_with_graph_size(monkeypatch):
    topology = perfbench_layout()
    calls = 0
    links_of = Topology.links_of

    def counting(self, node_id, include_down=True):
        nonlocal calls
        calls += 1
        return links_of(self, node_id, include_down)

    monkeypatch.setattr(Topology, "links_of", counting)
    greedy_k_clusters(topology, 4, random.Random(0))
    assert calls <= 2 * (topology.num_nodes + topology.num_links)
