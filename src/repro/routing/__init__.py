"""Route computation over target topologies.

The Binding phase pre-computes shortest-path routes among all pairs of
VNs and installs them in a routing matrix on each core node
(:class:`PrecomputedRouting`, the paper's O(n^2) design). The paper's
proposed alternative — a hash-based cache of routes for active flows,
computed on demand by resumable Dijkstra searches
(:class:`ShortestPathSearch`) that stop at the destination — is
:class:`CachedRouting`. A search settles only the transit core: a
*leaf* (a node other than the source with exactly one link, up or
down, such as a client attach point) is attached through its one link
when it is looked up, right after its attachment node settles. A
leaf's link counts as touched by a search once the attachment node is
settled, even when the lookup answered None because the link was down.
:class:`DynamicRouting` layers the "perfect routing protocol"
assumption on top: on any link/node failure it instantaneously
recomputes shortest paths.
"""

from repro.routing.shortest_path import (
    Hop,
    Route,
    RouteError,
    ShortestPathSearch,
    dijkstra,
    extract_route,
    route_latency,
    route_bottleneck_bandwidth,
    route_reliability,
    route_cost,
)
from repro.routing.service import (
    RoutingService,
    PrecomputedRouting,
    CachedRouting,
    DynamicRouting,
)
from repro.routing.hierarchical import HierarchicalRouting

__all__ = [
    "Hop",
    "Route",
    "RouteError",
    "ShortestPathSearch",
    "dijkstra",
    "extract_route",
    "route_latency",
    "route_bottleneck_bandwidth",
    "route_reliability",
    "route_cost",
    "RoutingService",
    "PrecomputedRouting",
    "CachedRouting",
    "DynamicRouting",
    "HierarchicalRouting",
]
