"""Unit tests for the topology graph model."""

import pytest

from repro.topology import NodeKind, Topology, TopologyError


def build_triangle():
    topology = Topology("triangle")
    a = topology.add_node(NodeKind.CLIENT)
    b = topology.add_node(NodeKind.STUB)
    c = topology.add_node(NodeKind.TRANSIT)
    topology.add_link(a.id, b.id, 1e6, 0.001)
    topology.add_link(b.id, c.id, 2e6, 0.002)
    topology.add_link(c.id, a.id, 3e6, 0.003)
    return topology, a, b, c


def test_add_node_assigns_sequential_ids():
    topology = Topology()
    assert topology.add_node().id == 0
    assert topology.add_node().id == 1


def test_explicit_node_id_respected():
    topology = Topology()
    node = topology.add_node(node_id=10)
    assert node.id == 10
    assert topology.add_node().id == 11


def test_duplicate_node_id_rejected():
    topology = Topology()
    topology.add_node(node_id=3)
    with pytest.raises(TopologyError):
        topology.add_node(node_id=3)


def test_link_endpoints_must_exist():
    topology = Topology()
    topology.add_node()
    with pytest.raises(TopologyError):
        topology.add_link(0, 99, 1e6, 0.001)


def test_self_loop_rejected():
    topology = Topology()
    topology.add_node()
    with pytest.raises(TopologyError):
        topology.add_link(0, 0, 1e6, 0.001)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"bandwidth_bps": 0, "latency_s": 0.001},
        {"bandwidth_bps": -1, "latency_s": 0.001},
        {"bandwidth_bps": 1e6, "latency_s": -0.1},
        {"bandwidth_bps": 1e6, "latency_s": 0.001, "loss_rate": 1.0},
        {"bandwidth_bps": 1e6, "latency_s": 0.001, "loss_rate": -0.1},
        {"bandwidth_bps": 1e6, "latency_s": 0.001, "queue_limit": 0},
    ],
)
def test_invalid_link_attributes_rejected(kwargs):
    topology = Topology()
    topology.add_node()
    topology.add_node()
    with pytest.raises(TopologyError):
        topology.add_link(0, 1, **kwargs)


def test_neighbors_and_degree():
    topology, a, b, c = build_triangle()
    neighbors = {n for n, _ in topology.neighbors(a.id)}
    assert neighbors == {b.id, c.id}
    assert topology.degree(a.id) == 2


def test_link_other_endpoint():
    topology, a, b, _ = build_triangle()
    link = topology.link_between(a.id, b.id)
    assert link.other(a.id) == b.id
    assert link.other(b.id) == a.id
    with pytest.raises(TopologyError):
        link.other(999)


def test_down_links_hidden_from_neighbors():
    topology, a, b, c = build_triangle()
    topology.link_between(a.id, b.id).up = False
    neighbors = {n for n, _ in topology.neighbors(a.id)}
    assert neighbors == {c.id}
    all_neighbors = {n for n, _ in topology.neighbors(a.id, include_down=True)}
    assert all_neighbors == {b.id, c.id}


def test_remove_link():
    topology, a, b, _ = build_triangle()
    link = topology.link_between(a.id, b.id)
    topology.remove_link(link.id)
    assert topology.link_between(a.id, b.id) is None
    assert topology.num_links == 2
    topology.validate()


def test_connected_components():
    topology = Topology()
    for _ in range(4):
        topology.add_node()
    topology.add_link(0, 1, 1e6, 0.001)
    topology.add_link(2, 3, 1e6, 0.001)
    assert topology.connected_components() == [[0, 1], [2, 3]]
    assert not topology.is_connected()
    topology.add_link(1, 2, 1e6, 0.001)
    assert topology.is_connected()


def test_down_link_splits_components():
    topology = Topology()
    topology.add_node()
    topology.add_node()
    link = topology.add_link(0, 1, 1e6, 0.001)
    assert topology.is_connected()
    link.up = False
    assert len(topology.connected_components()) == 2


def test_nodes_of_kind():
    topology, a, b, c = build_triangle()
    assert [n.id for n in topology.clients()] == [a.id]
    assert [n.id for n in topology.nodes_of_kind(NodeKind.TRANSIT)] == [c.id]


def test_copy_is_independent():
    topology, a, b, _ = build_triangle()
    clone = topology.copy()
    assert clone.num_nodes == topology.num_nodes
    assert clone.num_links == topology.num_links
    clone.link_between(a.id, b.id).bandwidth_bps = 999.0
    assert topology.link_between(a.id, b.id).bandwidth_bps == 1e6
    clone.add_node()
    assert clone.num_nodes == topology.num_nodes + 1


def test_copy_preserves_link_state():
    topology, a, b, _ = build_triangle()
    topology.link_between(a.id, b.id).up = False
    clone = topology.copy()
    assert not clone.link_between(a.id, b.id).up


def test_reliability():
    topology = Topology()
    topology.add_node()
    topology.add_node()
    link = topology.add_link(0, 1, 1e6, 0.001, loss_rate=0.25)
    assert link.reliability == pytest.approx(0.75)


def test_parse_node_kind():
    assert NodeKind.parse("CLIENT") is NodeKind.CLIENT
    with pytest.raises(TopologyError):
        NodeKind.parse("banana")


def core_neighbors(topology, node_id):
    return [neighbor for neighbor, _link in topology.core_adjacency()[node_id]]


def leaf_ids(topology):
    return list(topology.leaves())


def build_star():
    """Hub 0 with leaves 1 and 2."""
    topology = Topology("star")
    for _ in range(3):
        topology.add_node(NodeKind.STUB)
    spoke1 = topology.add_link(0, 1, 1e6, 0.001)
    topology.add_link(0, 2, 1e6, 0.001)
    return topology, spoke1


def test_search_views_list_leaves_and_skip_them():
    topology, spoke1 = build_star()
    assert leaf_ids(topology) == [1, 2]
    assert topology.leaves()[1] == (spoke1, 0)
    assert core_neighbors(topology, 0) == []
    assert core_neighbors(topology, 1) == [0]


def test_down_link_still_makes_a_leaf():
    topology, spoke1 = build_star()
    spoke1.up = False
    assert leaf_ids(topology) == [1, 2]


def test_add_link_turns_a_leaf_into_a_transit_node():
    topology, _ = build_star()
    assert leaf_ids(topology) == [1, 2]
    topology.add_node(NodeKind.CLIENT)
    topology.add_link(1, 3, 1e6, 0.001)
    assert leaf_ids(topology) == [2, 3]
    assert core_neighbors(topology, 0) == [1]
    assert core_neighbors(topology, 1) == [0]


def test_remove_link_can_make_a_leaf():
    topology, a, b, c = build_triangle()
    assert leaf_ids(topology) == []
    assert core_neighbors(topology, b.id) == [a.id, c.id]
    topology.remove_link(topology.link_between(a.id, b.id).id)
    assert leaf_ids(topology) == [a.id, b.id]
    assert core_neighbors(topology, c.id) == []
    assert core_neighbors(topology, a.id) == [c.id]


def test_remove_node_refuses_a_linked_node():
    topology, spoke1 = build_star()
    with pytest.raises(TopologyError):
        topology.remove_node(1)
    with pytest.raises(TopologyError):
        topology.remove_node(42)
    topology.remove_link(spoke1.id)
    topology.core_adjacency()
    topology.remove_node(1)
    assert 1 not in topology.nodes
    assert 1 not in topology.core_adjacency()
    assert leaf_ids(topology) == [0, 2]  # the hub kept one link
    topology.validate()


def test_search_views_are_not_pickled():
    import pickle

    topology, _ = build_star()
    topology.core_adjacency()
    clone = pickle.loads(pickle.dumps(topology))
    assert clone._core is None and clone._leaves is None
    assert leaf_ids(clone) == [1, 2]
    assert topology._core is not None
