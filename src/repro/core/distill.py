"""Distillation: trading emulation cost for topological fidelity.

Implements the continuum of paper Sec. 4.1:

* **hop-by-hop** — the distilled topology is isomorphic to the
  target; every link is emulated (highest fidelity, highest cost).
* **end-to-end** — all interior nodes removed; a full mesh of
  O(n^2) collapsed pipes interconnects the n VNs. A collapsed pipe
  takes the minimum bandwidth, the summed latency, and the product of
  reliabilities along the path it replaces.
* **walk-in** — breadth-first frontier sets grown from the VNs; the
  first ``walk_in`` frontiers are preserved, and links internal to
  the remaining *interior* are replaced by a full mesh over the
  interior nodes (collapsed along interior shortest paths). Every
  packet then traverses at most 2*walk_in + 1 pipes. walk_in = 1 is
  the paper's "last-mile" distillation.
* **walk-out** — additionally preserves the innermost ``walk_out``
  frontier sets around the topological center, so an
  under-provisioned core keeps real contention while the middle is
  meshed.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.routing.shortest_path import dijkstra, extract_route
from repro.topology.graph import NodeKind, Topology, TopologyError


class DistillationMode(enum.Enum):
    HOP_BY_HOP = "hop-by-hop"
    END_TO_END = "end-to-end"
    WALK_IN = "walk-in"


@dataclass
class DistillationResult:
    """A distilled topology plus accounting for the researcher.

    The paper argues the environment should report the nature and
    degree of introduced inaccuracy; ``collapsed_links`` and
    ``mesh_links`` quantify how much of the target was abstracted.
    """

    topology: Topology
    mode: DistillationMode
    walk_in: int = 0
    walk_out: int = 0
    preserved_links: int = 0
    collapsed_links: int = 0
    mesh_links: int = 0
    frontier_sizes: List[int] = field(default_factory=list)

    @property
    def total_pipes(self) -> int:
        """Undirected link count of the distilled topology (the
        paper's 'pipes' accounting)."""
        return self.topology.num_links


def frontier_sets(topology: Topology, seeds: Sequence[int]) -> List[Set[int]]:
    """Breadth-first frontier sets: F1 = seeds; F_{i+1} = nodes one
    hop from F_i not in any earlier set. Continues until exhausted."""
    frontiers: List[Set[int]] = []
    seen: Set[int] = set(seeds)
    current: Set[int] = set(seeds)
    while current:
        frontiers.append(current)
        nxt: Set[int] = set()
        for node in current:
            for neighbor, _link in topology.neighbors(node):
                if neighbor not in seen:
                    seen.add(neighbor)
                    nxt.add(neighbor)
        current = nxt
    return frontiers


def _collapse_path(route) -> Tuple[float, float, float, int, float]:
    """(bandwidth, latency, loss, queue_limit, cost) of the pipe that
    replaces ``route``: min bw, summed latency, 1 - product of link
    reliabilities, queue of the bottleneck link, summed cost."""
    bandwidth = min(hop.link.bandwidth_bps for hop in route)
    latency = sum(hop.link.latency_s for hop in route)
    reliability = 1.0
    for hop in route:
        reliability *= hop.link.reliability
    bottleneck = min(route, key=lambda hop: hop.link.bandwidth_bps)
    cost = sum(hop.link.cost for hop in route)
    return bandwidth, latency, 1.0 - reliability, bottleneck.link.queue_limit, cost


def _mesh_over(
    source_topology: Topology,
    distilled: Topology,
    mesh_nodes: Sequence[int],
    allowed_nodes: Set[int],
) -> int:
    """Add collapsed pipes between every pair of ``mesh_nodes`` whose
    shortest path stays within ``allowed_nodes``. Returns the number
    of mesh links added."""
    # Restrict the path search to the allowed region by building a
    # subgraph view: cheapest is a filtered copy.
    subgraph = Topology("interior")
    for node_id in sorted(allowed_nodes):
        node = source_topology.node(node_id)
        subgraph.add_node(node.kind, node_id=node_id)
    for link in sorted(source_topology.links.values(), key=lambda l: l.id):
        if link.up and link.a in allowed_nodes and link.b in allowed_nodes:
            subgraph.add_link(
                link.a,
                link.b,
                link.bandwidth_bps,
                link.latency_s,
                link.loss_rate,
                link.queue_limit,
                link.cost,
            )
    added = 0
    ordered = sorted(mesh_nodes)
    for index, src in enumerate(ordered):
        _dist, prev = dijkstra(subgraph, src, weight="latency")
        for dst in ordered[index + 1 :]:
            route = extract_route(prev, src, dst)
            if not route:
                continue
            bandwidth, latency, loss, queue_limit, cost = _collapse_path(route)
            distilled.add_link(
                src,
                dst,
                bandwidth,
                latency,
                loss,
                queue_limit,
                cost,
                distilled=True,
            )
            added += 1
    return added


def distill(
    topology: Topology,
    mode: DistillationMode = DistillationMode.HOP_BY_HOP,
    walk_in: int = 1,
    walk_out: int = 0,
    vn_nodes: Optional[Sequence[int]] = None,
) -> DistillationResult:
    """Produce the distilled topology for ``mode``.

    ``vn_nodes`` defaults to all client nodes. The original topology
    is never modified.
    """
    if vn_nodes is None:
        vn_nodes = [node.id for node in topology.clients()]
    vn_set = set(vn_nodes)
    if not vn_set:
        raise TopologyError("cannot distill a topology with no VNs")

    if mode is DistillationMode.HOP_BY_HOP:
        result = DistillationResult(
            topology.copy(f"{topology.name}-hbh"),
            mode,
            preserved_links=topology.num_links,
        )
        return result

    if mode is DistillationMode.END_TO_END:
        distilled = Topology(f"{topology.name}-e2e")
        for node_id in sorted(vn_set):
            node = topology.node(node_id)
            distilled.add_node(node.kind, node_id=node_id, **dict(node.attrs))
        mesh = _mesh_over(
            topology, distilled, sorted(vn_set), set(topology.nodes)
        )
        return DistillationResult(
            distilled,
            mode,
            collapsed_links=topology.num_links,
            mesh_links=mesh,
        )

    if mode is not DistillationMode.WALK_IN:
        raise TopologyError(f"unknown distillation mode {mode!r}")
    if walk_in < 1:
        raise TopologyError("walk_in must be >= 1")

    frontiers = frontier_sets(topology, sorted(vn_set))
    preserved: Set[int] = set()
    for frontier in frontiers[:walk_in]:
        preserved |= frontier
    if walk_out > 0 and len(frontiers) > walk_in:
        # The topological center is the last frontier (size <= the
        # others, approaching 0/1 as the BFS converges).
        center_index = len(frontiers) - 1
        start = max(walk_in, center_index - walk_out + 1)
        for frontier in frontiers[start:]:
            preserved |= frontier

    interior = set(topology.nodes) - preserved
    distilled = Topology(f"{topology.name}-walkin{walk_in}")
    for node_id in sorted(topology.nodes):
        node = topology.node(node_id)
        distilled.add_node(node.kind, node_id=node_id, **dict(node.attrs))

    preserved_links = 0
    collapsed_links = 0
    for link in sorted(topology.links.values(), key=lambda l: l.id):
        if link.a in interior and link.b in interior:
            collapsed_links += 1
            continue
        new = distilled.add_link(
            link.a,
            link.b,
            link.bandwidth_bps,
            link.latency_s,
            link.loss_rate,
            link.queue_limit,
            link.cost,
            **dict(link.attrs),
        )
        # Build-time topology construction (copying the source link's
        # state into the distilled graph), not a runtime mutation.
        new.up = link.up  # repro: allow-fault-mutation
        preserved_links += 1

    mesh_links = _mesh_over(topology, distilled, sorted(interior), interior)

    # Interior nodes that ended up isolated (no preserved attachment
    # and no mesh reachability) are dropped for cleanliness.
    for node_id in sorted(interior):
        if distilled.degree(node_id) == 0:
            distilled.remove_node(node_id)

    return DistillationResult(
        distilled,
        mode,
        walk_in=walk_in,
        walk_out=walk_out,
        preserved_links=preserved_links,
        collapsed_links=collapsed_links,
        mesh_links=mesh_links,
        frontier_sizes=[len(f) for f in frontiers],
    )
