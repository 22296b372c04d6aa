"""Resumable route searches against a full-tree reference model.

``ReferenceCachedRouting`` is the original demand cache, kept as the
oracle: one full Dijkstra tree per source, built at the source's first
lookup after the last reroute on the weights of that moment, and a
flush on every reroute. The resumable :class:`CachedRouting` must
answer every lookup with an equal route under any interleaving of
lookups, weight changes (announced through ``link_changing`` before
the mutation, as the fault applier does) and reroutes.
"""

import heapq
import random
from typing import Dict, List, Optional, Set, Tuple

import pytest

from repro.routing import CachedRouting, DynamicRouting, Hop, dijkstra, extract_route
from repro.topology import NodeKind, Topology

MS = 1e-3


REFERENCE_WEIGHTS = {
    "latency": lambda link: link.latency_s,
    "hops": lambda link: 1.0,
    "cost": lambda link: link.cost,
}


def reference_dijkstra(topology, source, weight):
    weigh = weight if callable(weight) else REFERENCE_WEIGHTS[weight]
    dist: Dict[int, float] = {source: 0.0}
    prev: Dict[int, Hop] = {}
    visited: Set[int] = set()
    heap: List[Tuple[float, int]] = [(0.0, source)]
    while heap:
        d, node = heapq.heappop(heap)
        if node in visited:
            continue
        visited.add(node)
        for neighbor, link in topology.neighbors(node):
            if neighbor in visited:
                continue
            candidate = d + weigh(link)
            if candidate < dist.get(neighbor, float("inf")):
                dist[neighbor] = candidate
                prev[neighbor] = Hop(link, node, neighbor)
                heapq.heappush(heap, (candidate, neighbor))
    return dist, prev


class ReferenceCachedRouting:
    """Full tree per source, flushed on every invalidation."""

    def __init__(self, topology, weight):
        self._topology = topology
        self._weight = weight
        self._prev: Dict[int, Dict[int, Hop]] = {}
        self._routes: Dict[Tuple[int, int], Optional[tuple]] = {}

    def route(self, src, dst):
        key = (src, dst)
        if key in self._routes:
            return self._routes[key]
        prev = self._prev.get(src)
        if prev is None:
            _dist, prev = reference_dijkstra(self._topology, src, self._weight)
            self._prev[src] = prev
        result = extract_route(prev, src, dst)
        self._routes[key] = result
        return result

    def invalidate(self):
        self._prev.clear()
        self._routes.clear()


def mixed_weight(link):
    return round(link.latency_s / MS) + 3 * link.cost


WEIGHTS = ["latency", "hops", "cost", mixed_weight]


def random_topology(rng: random.Random) -> Topology:
    """A connected multigraph with many equal-weight paths. Links are
    mostly local (a strip of nodes with short chords), so a search
    that stops at a near destination leaves far links untouched.
    About half the strip nodes carry one degree-1 ``CLIENT`` leaf,
    numbered after the strip."""
    topology = Topology("oracle")
    size = rng.randint(15, 40)
    for _ in range(size):
        topology.add_node(NodeKind.STUB)

    def link(a, b):
        topology.add_link(
            a, b, 1e6, rng.choice((1, 2, 3)) * MS, cost=rng.choice((1.0, 2.0))
        )

    for node in range(1, size):
        link(node, rng.randrange(max(0, node - 3), node))
    for _ in range(rng.randint(size // 2, 2 * size)):
        a = rng.randrange(size - 1)
        link(a, rng.randint(a + 1, min(size - 1, a + 4)))  # parallel links allowed
    for node in range(size):
        if rng.random() < 0.5:
            link(topology.add_node(NodeKind.CLIENT).id, node)
    return topology


def change_weight(routing: DynamicRouting, link, rng: random.Random) -> None:
    routing.link_changing(link)
    if rng.random() < 0.7:
        link.latency_s = rng.choice((1, 2, 3)) * MS
    if rng.random() < 0.5:
        link.cost = rng.choice((1.0, 2.0))


def run_interleaving(seed: int, weight) -> None:
    rng = random.Random(seed)
    topology = random_topology(rng)
    nodes = sorted(topology.nodes)
    leaves = [node.id for node in topology.clients()]
    links = [topology.links[i] for i in sorted(topology.links)]
    hot = rng.sample(nodes, 3)
    routing = DynamicRouting(CachedRouting(topology, weight))
    reference = ReferenceCachedRouting(topology, weight)
    for step in range(rng.randint(40, 90)):
        roll = rng.random()
        if roll < 0.55:
            src = rng.choice(hot)
            if leaves and rng.random() < 0.5:
                dst = rng.choice(leaves)
            elif rng.random() < 0.8:  # mostly near: searches stay partial
                dst = min(max(src + rng.randint(-5, 5), 0), nodes[-1])
            else:
                dst = rng.choice(nodes)
            assert routing.route(src, dst) == reference.route(src, dst), (
                f"seed {seed} step {step}: route {src}->{dst}"
            )
        elif roll < 0.75:
            for _ in range(rng.randint(1, 4)):
                change_weight(routing, rng.choice(links), rng)
        elif roll < 0.9:
            link = rng.choice(links)
            if link.up:
                routing.link_failed(link)
            else:
                routing.link_recovered(link)
            reference.invalidate()
        elif roll < 0.97:
            node = rng.choice(nodes)
            if rng.random() < 0.5:
                routing.node_failed(topology, node)
            else:
                routing.node_recovered(topology, node)
            reference.invalidate()
        else:
            routing.invalidate()
            reference.invalidate()
    # Every source's full table agrees at the end, too.
    for src in hot:
        for dst in nodes:
            assert routing.route(src, dst) == reference.route(src, dst)


@pytest.mark.parametrize("weight", WEIGHTS, ids=["latency", "hops", "cost", "callable"])
@pytest.mark.parametrize("block", range(4))
def test_matches_full_tree_reference(weight, block):
    # 4 weights x 4 blocks x 20 seeds = 320 seeded interleavings.
    for seed in range(block * 20, block * 20 + 20):
        run_interleaving(seed, weight)


# ----------------------------------------------------------------------
# One deterministic example per rule
# ----------------------------------------------------------------------


def ladder():
    """Source 0 reaches 4 via 2 (1+10+10 = 21 ms) or via 3 (1+10+11 =
    22 ms). A lookup of 1 settles only {0, 1}. Link 5-6 hangs far
    beyond 4 and is never touched by the lookups below."""
    topology = Topology("ladder")
    for _ in range(7):
        topology.add_node(NodeKind.STUB)
    links = {
        "01": topology.add_link(0, 1, 1e6, 1 * MS),
        "12": topology.add_link(1, 2, 1e6, 10 * MS),
        "13": topology.add_link(1, 3, 1e6, 10 * MS),
        "24": topology.add_link(2, 4, 1e6, 10 * MS),
        "34": topology.add_link(3, 4, 1e6, 11 * MS),
        "45": topology.add_link(4, 5, 1e6, 100 * MS),
        "56": topology.add_link(5, 6, 1e6, 1 * MS),
    }
    return topology, links, DynamicRouting(CachedRouting(topology))


def via(route) -> List[int]:
    return [hop.dst for hop in route]


def set_latency(routing, link, ms):
    routing.link_changing(link)
    link.latency_s = ms * MS


def flap(routing, link):
    routing.link_failed(link)
    routing.link_recovered(link)


VIA_2 = [1, 2, 4]
VIA_3 = [1, 3, 4]


def test_hold_keeps_the_tree_moment_weight():
    _, links, routing = ladder()
    routing.route(0, 1)
    set_latency(routing, links["24"], 20)  # untouched: held at 10 ms
    assert via(routing.route(0, 4)) == VIA_2


def test_stale_search_is_dropped_at_the_next_reroute():
    _, links, routing = ladder()
    assert via(routing.route(0, 4)) == VIA_2
    set_latency(routing, links["24"], 20)  # touched: stale
    assert via(routing.route(0, 4)) == VIA_2  # no reroute yet
    flap(routing, links["56"])  # unrelated reroute
    assert via(routing.route(0, 4)) == VIA_3


def test_consumed_hold_is_dropped_at_the_next_reroute():
    _, links, routing = ladder()
    routing.route(0, 1)
    set_latency(routing, links["24"], 20)  # held
    assert via(routing.route(0, 4)) == VIA_2  # relaxed at the held weight
    flap(routing, links["56"])
    assert via(routing.route(0, 4)) == VIA_3


def test_pending_memo_hit_fixes_the_tree_moment():
    _, links, routing = ladder()
    routing.route(0, 1)
    flap(routing, links["56"])  # kept, pending
    assert via(routing.route(0, 1)) == [1]  # memo hit: the tree moment
    set_latency(routing, links["12"], 15)  # touched: stale, not dropped
    assert via(routing.route(0, 4)) == VIA_2


def test_pending_search_holds_nothing():
    _, links, routing = ladder()
    routing.route(0, 1)
    flap(routing, links["56"])  # kept, pending
    set_latency(routing, links["24"], 20)  # untouched: not held
    assert via(routing.route(0, 4)) == VIA_3


def test_pending_search_touched_by_a_weight_change_is_dropped():
    _, links, routing = ladder()
    routing.route(0, 1)
    flap(routing, links["56"])  # kept, pending
    set_latency(routing, links["12"], 15)  # touched while pending
    assert via(routing.route(0, 4)) == VIA_3


def test_unrelated_reroute_keeps_the_search():
    _, links, routing = ladder()
    routing.route(0, 4)
    flap(routing, links["56"])
    stats = routing.stats()
    assert stats["reroutes"] == 2
    assert stats["searches_kept"] == 2
    assert via(routing.route(0, 4)) == VIA_2
    assert routing.stats()["searches"] == 1


def test_reroute_of_a_touched_link_drops_the_search():
    _, links, routing = ladder()
    routing.route(0, 4)
    routing.link_failed(links["24"])
    assert via(routing.route(0, 4)) == VIA_3
    assert routing.stats()["searches"] == 2


def test_lookup_settles_only_up_to_the_destination():
    _, _, routing = ladder()
    routing.route(0, 1)
    assert routing.stats()["nodes_settled"] == 2
    routing.route(0, 4)  # resumes: settles 2, 3 and 4
    assert routing.stats()["nodes_settled"] == 5


# ----------------------------------------------------------------------
# Leaves: nodes with one link are attached on lookup, not searched
# ----------------------------------------------------------------------


def ring_with_clients(routers=6):
    """A ring of routers, one client leaf per router: client ``i`` is
    node ``routers + i`` on router ``i``."""
    topology = Topology("ring")
    for _ in range(routers):
        topology.add_node(NodeKind.STUB)
    for router in range(routers):
        topology.add_link(router, (router + 1) % routers, 1e6, 1 * MS)
    access = [
        topology.add_link(topology.add_node(NodeKind.CLIENT).id, router, 1e6, 1 * MS)
        for router in range(routers)
    ]
    return topology, access


def full_tree_route(topology, src, dst):
    _dist, prev = reference_dijkstra(topology, src, "latency")
    return extract_route(prev, src, dst)


def test_leaf_behind_a_recovered_access_link_is_routed_again():
    topology, access = ring_with_clients()
    routing = DynamicRouting(CachedRouting(topology))
    client0, client3 = 6, 9
    routing.link_failed(access[3])
    assert routing.route(client0, client3) is None
    routing.link_recovered(access[3])
    route = routing.route(client0, client3)
    assert route is not None
    assert route == full_tree_route(topology, client0, client3)


def test_leaf_lookup_pauses_at_the_attachment_node():
    topology, _ = ring_with_clients()
    routing = CachedRouting(topology)
    routing.route(6, 7)  # client 0 -> router 0 -> router 1 -> client 1
    stats = routing.stats()
    assert stats["nodes_settled"] == 3  # client 0, routers 0 and 1
    assert stats["leaves_attached"] == 1


def test_unknown_destination_has_no_route():
    topology, _ = ring_with_clients()
    routing = CachedRouting(topology)
    assert routing.route(6, 999) is None
    assert routing.route(0, 999) is None
    assert routing.route(6, 9) == full_tree_route(topology, 6, 9)


def assert_full_run_matches_reference(topology, source, weight="latency"):
    dist, prev = dijkstra(topology, source, weight)
    expected_dist, expected_prev = reference_dijkstra(topology, source, weight)
    assert dist == expected_dist
    assert prev == expected_prev


@pytest.mark.parametrize("weight", WEIGHTS, ids=["latency", "hops", "cost", "callable"])
@pytest.mark.parametrize("seed", range(20))
def test_full_run_matches_reference_on_leaf_rich_graphs(weight, seed):
    rng = random.Random(seed)
    topology = random_topology(rng)
    for link in rng.sample(list(topology.links.values()), 3):
        link.up = False
    for source in sorted(topology.nodes):
        assert_full_run_matches_reference(topology, source, weight)


def test_full_run_from_a_leaf_source():
    topology, _ = ring_with_clients()
    dist, prev = dijkstra(topology, 6)
    assert set(dist) == set(topology.nodes)
    assert_full_run_matches_reference(topology, 6)


def test_full_run_over_a_two_node_leaf_component():
    topology = Topology("pair")
    a = topology.add_node(NodeKind.CLIENT).id
    b = topology.add_node(NodeKind.CLIENT).id
    topology.add_link(a, b, 1e6, 1 * MS)
    dist, prev = dijkstra(topology, a)
    assert dist == {a: 0.0, b: 1 * MS}
    assert_full_run_matches_reference(topology, a)
    assert_full_run_matches_reference(topology, b)
    assert CachedRouting(topology).route(a, b) == full_tree_route(topology, a, b)


def test_full_run_over_parallel_links():
    # Node 2 has degree 2 over two parallel links: not a leaf.
    topology, _ = ring_with_clients(3)
    extra = topology.add_node(NodeKind.CLIENT).id
    topology.add_link(extra, 0, 1e6, 3 * MS)
    topology.add_link(extra, 0, 1e6, 2 * MS)
    assert extra not in topology.leaves()
    for source in topology.nodes:
        assert_full_run_matches_reference(topology, source)
        assert_full_run_matches_reference(topology, source, "hops")


def test_full_run_skips_a_leaf_behind_a_down_link():
    topology, access = ring_with_clients()
    access[2].up = False
    dist, prev = dijkstra(topology, 6)
    assert 8 not in dist and 8 not in prev
    assert_full_run_matches_reference(topology, 6)
    assert_full_run_matches_reference(topology, 8)
