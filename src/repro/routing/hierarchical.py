"""Hierarchical routing tables (paper Sec. 2.2).

The flat routing matrix costs O(n^2) space. "For common Internet-like
topologies that cluster VNs on stub domains, we could spread lookups
among hierarchical but smaller tables, trading less storage for a
slight increase in lookup cost."

:class:`HierarchicalRouting` implements that design: VNs are grouped
into clusters (their stub domain when the topology is annotated, else
their attachment router); each cluster elects a gateway, and the only
stored state is one shortest-path tree per gateway plus each client's
route to its gateway — O(G*n) instead of O(n^2). A lookup stitches
client -> gateway -> destination and snips any transient cycle where
the segments overlap. Routes may be slightly longer than optimal
(they detour via the gateway); tests and benches quantify both the
storage savings and the stretch.
"""

from __future__ import annotations

from collections import Counter
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.routing.service import RoutingService
from repro.routing.shortest_path import (
    Hop,
    Route,
    RouteError,
    WeightSpec,
    dijkstra,
    extract_route,
)
from repro.topology.graph import Link, NodeKind, Topology


def _snip_cycles(hops: List[Hop]) -> Tuple[Hop, ...]:
    """Remove loops from a walk: when a node repeats, drop the hops
    between its first visit and the repeat."""
    result: List[Hop] = []
    position: Dict[int, int] = {}
    if hops:
        position[hops[0].src] = 0
    for hop in hops:
        seen_at = position.get(hop.dst)
        if seen_at is not None:
            # Rewind to the earlier visit of hop.dst; the walk
            # continues from there.
            for removed in result[seen_at:]:
                position.pop(removed.dst, None)
            del result[seen_at:]
            continue
        result.append(hop)
        position[hop.dst] = len(result)
    return tuple(result)


class HierarchicalRouting(RoutingService):
    """Two-level routing: client -> cluster gateway -> destination."""

    def __init__(
        self,
        topology: Topology,
        weight: WeightSpec = "latency",
        cluster_of: Optional[Callable[[int], object]] = None,
    ):
        self.topology = topology
        self.weight = weight
        self._cluster_of = cluster_of or self._default_cluster
        self._clusters: Dict[object, List[int]] = {}
        for node in topology.clients():
            key = self._cluster_of(node.id)
            self._clusters.setdefault(key, []).append(node.id)
        self._gateway: Dict[object, int] = {}
        for key, members in sorted(self._clusters.items(), key=lambda kv: str(kv[0])):
            self._gateway[key] = self._elect_gateway(members)
        # One shortest-path tree per gateway; built lazily, retained.
        self._trees: Dict[int, Dict[int, Hop]] = {}

    # -- structure -------------------------------------------------------

    def _default_cluster(self, client_id: int) -> object:
        node = self.topology.node(client_id)
        domain = node.attrs.get("domain")
        if domain is not None:
            return domain
        neighbors = [n for n, _l in self.topology.neighbors(client_id)]
        return ("router", min(neighbors)) if neighbors else ("isolated", client_id)

    def _elect_gateway(self, members: List[int]) -> int:
        """The cluster's gateway: the most common attachment router
        of its members (falling back to the first member)."""
        attachments = Counter()
        for client in members:
            for neighbor, _link in self.topology.neighbors(client):
                if self.topology.node(neighbor).kind is not NodeKind.CLIENT:
                    attachments[neighbor] += 1
        if attachments:
            # Deterministic tie-break by id.
            best = max(sorted(attachments), key=lambda n: attachments[n])
            return best
        return members[0]

    def _tree(self, root: int) -> Dict[int, Hop]:
        tree = self._trees.get(root)
        if tree is None:
            _dist, tree = dijkstra(self.topology, root, self.weight)
            self._trees[root] = tree
        return tree

    # -- RoutingService ------------------------------------------------------

    def route(self, src: int, dst: int) -> Optional[Route]:
        """src -> gateway -> dst, stitched and cycle-snipped."""
        if src == dst:
            return ()
        key = self._cluster_of(src)
        if key not in self._gateway:
            raise RouteError(f"node {src} is not a clustered VN")
        gateway = self._gateway[key]
        tree = self._tree(gateway)
        # Gateway -> src reversed gives src -> gateway (undirected links).
        to_src = extract_route(tree, gateway, src)
        to_dst = extract_route(tree, gateway, dst)
        if to_src is None or to_dst is None:
            return None
        up = [Hop(hop.link, hop.dst, hop.src) for hop in reversed(to_src)]
        route = _snip_cycles(up + list(to_dst))
        return route if route else None

    def invalidate(self, links: Optional[Iterable[Link]] = None) -> None:
        self._trees.clear()

    # -- accounting (the storage trade the paper describes) --------------------

    @property
    def num_clusters(self) -> int:
        return len(self._clusters)

    def table_entries(self) -> int:
        """Stored entries: one tree of n next-hops per gateway."""
        return len(self._gateway) * self.topology.num_nodes

    def flat_matrix_entries(self) -> int:
        """What the O(n^2) matrix would store for the same VNs."""
        clients = len(self.topology.clients())
        return clients * clients
