"""Routing services: precomputed matrix, demand cache, dynamic wrapper."""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Tuple

from repro.topology.graph import Link, Topology
from repro.routing.shortest_path import (
    Hop,
    Route,
    RouteError,
    ShortestPathSearch,
    WeightSpec,
    dijkstra,
    extract_route,
)


class RoutingService:
    """Interface: map a (source node, destination node) pair to the
    ordered sequence of directed hops between them."""

    def route(self, src: int, dst: int) -> Optional[Route]:
        raise NotImplementedError

    def invalidate(self, links: Optional[Iterable[Link]] = None) -> None:
        """Discard state derived from the topology (after changes).

        ``links``, when given, are the only links whose up/down state
        changed (a reroute); ``None`` means anything may have changed.
        """
        raise NotImplementedError

    def link_changing(self, link: Link) -> None:
        """Called just *before* ``link``'s weight attributes (latency,
        bandwidth, loss, cost) are mutated without a reroute. Default:
        nothing to do."""

    def stats(self) -> Dict[str, int]:
        """Work counters for the run report (``routing.<name>``)."""
        return {}


class PrecomputedRouting(RoutingService):
    """The paper's O(n^2) routing matrix.

    Shortest-path trees are computed eagerly for every source in
    ``sources`` (default: all client nodes); route objects themselves
    are materialized lazily and memoized, since a 1000-VN matrix holds
    ~10^6 of them and most experiments touch a small subset.
    """

    def __init__(
        self,
        topology: Topology,
        sources: Optional[Iterable[int]] = None,
        weight: WeightSpec = "latency",
    ):
        self._topology = topology
        self._weight = weight
        if sources is None:
            sources = [node.id for node in topology.clients()]
        self._sources = list(sources)
        self._prev: Dict[int, Dict[int, Hop]] = {}
        self._routes: Dict[Tuple[int, int], Optional[Route]] = {}
        self._compute()

    def _compute(self) -> None:
        self._prev.clear()
        self._routes.clear()
        for source in self._sources:
            _dist, prev = dijkstra(self._topology, source, self._weight)
            self._prev[source] = prev

    @property
    def lookups_per_pair(self) -> int:
        """Number of (src, dst) route entries addressable: n^2."""
        return len(self._sources) ** 2

    def route(self, src: int, dst: int) -> Optional[Route]:
        """Look up the precomputed route; None when unreachable."""
        key = (src, dst)
        if key in self._routes:
            return self._routes[key]
        prev = self._prev.get(src)
        if prev is None:
            raise RouteError(f"node {src} is not a routing source")
        result = extract_route(prev, src, dst)
        self._routes[key] = result
        return result

    def invalidate(self, links: Optional[Iterable[Link]] = None) -> None:
        self._compute()


class _SourceSearch(ShortestPathSearch):
    """One source's resumable search plus the bookkeeping
    :class:`CachedRouting` needs to keep it exact across weight
    changes and reroutes."""

    __slots__ = ("base_weigh", "routes", "held", "stale", "pending")

    def __init__(self, topology: Topology, source: int, weight: WeightSpec):
        super().__init__(topology, source, weight)
        self.base_weigh = self.weigh
        #: Memoized routes by destination.
        self.routes: Dict[int, Optional[Route]] = {}
        #: Link id -> weight as of this search's tree moment, for
        #: links that changed while the search had not relaxed them.
        self.held: Dict[int, float] = {}
        #: A link this search relaxed changed weight: keep answering,
        #: drop at the next reroute.
        self.stale = False
        #: Kept across a reroute and not looked up since.
        self.pending = False

    def hold(self, link: Link) -> None:
        held = self.held
        if link.id in held:
            return
        if not held:
            base = self.base_weigh

            # A closure, not a bound method: a dropped search must not
            # sit in a reference cycle until the next full collection.
            def weigh(link: Link) -> float:
                weight = held.get(link.id)
                return base(link) if weight is None else weight

            self.weigh = weigh
        held[link.id] = self.base_weigh(link)

    def used_hold(self) -> bool:
        """Whether some link was relaxed at a held weight (a held
        link is relaxed when its first endpoint settles)."""
        links = self.topology.links
        return any(self.touched(links[link_id]) for link_id in self.held)

    def release(self) -> None:
        self.held.clear()
        self.weigh = self.base_weigh


class CachedRouting(RoutingService):
    """The paper's hash-based alternative: routes for active flows are
    computed on demand and cached.

    Each source keeps one resumable Dijkstra search
    (:class:`ShortestPathSearch`). A lookup resumes it only until the
    destination is settled, so a source's cost is the part of the
    graph nearer than its farthest destination, and a repeated pair
    is a memo hit. The search settles only the transit core: a leaf
    destination (a node with one link, such as a client attach point)
    is attached when its attachment node settles, so a lookup of a
    leaf pauses right after that node.

    Routes are exactly those of a full shortest-path tree built at
    the source's first lookup after the last reroute, on the weights
    of that moment (the "perfect routing protocol" reroutes only on
    up/down changes; a weight change reaches a source's routes at its
    first lookup after the next reroute). Where a search pauses does
    not change its routes, only which searches survive a reroute.
    With "S touched L" meaning an endpoint of link L is settled in
    search S (a leaf's link is touched once its attachment node is
    settled; a lookup of a leaf behind a down link settles that node
    too, so the reroute that brings the link back drops the memoized
    None):

    * :meth:`link_changing` (weight change, no reroute): a search that
      touched L turns *stale* and keeps answering until the next
      reroute; any other search *holds* L's pre-change weight and
      relaxes L at it. A *pending* search (see below) that touched L
      is dropped; one that did not holds nothing.
    * :meth:`invalidate` with the changed links (a reroute): a search
      is dropped if it touched a changed link, is stale, or relaxed a
      link at a held weight. Otherwise it is, state for state, the
      search a fresh run on the new topology would have reached: it
      is kept with its memo, its holds are released, and it turns
      *pending* until its source's next lookup (memo hits included).
    * :meth:`invalidate` with no links drops every search.
    """

    def __init__(self, topology: Topology, weight: WeightSpec = "latency"):
        self._topology = topology
        self._weight = weight
        self._searches: Dict[int, _SourceSearch] = {}
        #: Searches started (cold sources), and memo hits.
        self.misses = 0
        self.hits = 0
        #: Nodes settled by heap pops, and leaves attached on lookup.
        self.nodes_settled = 0
        self.leaves_attached = 0
        self.reroutes = 0
        self.searches_kept = 0

    def route(self, src: int, dst: int) -> Optional[Route]:
        """Cached lookup; a miss resumes the source's search until
        ``dst`` is settled (a cold source starts one)."""
        search = self._searches.get(src)
        if search is None:
            search = _SourceSearch(self._topology, src, self._weight)
            self._searches[src] = search
            self.misses += 1
        search.pending = False
        routes = search.routes
        cached = routes.get(dst, _SENTINEL)
        if cached is not _SENTINEL:
            self.hits += 1
            return cached
        settled_before = len(search.settled)
        attached_before = search.attached
        result = search.route_to(dst)
        attached = search.attached - attached_before
        self.leaves_attached += attached
        self.nodes_settled += len(search.settled) - settled_before - attached
        routes[dst] = result
        return result

    def link_changing(self, link: Link) -> None:
        searches = self._searches
        for source in list(searches):
            search = searches[source]
            if search.touched(link):
                if search.pending:
                    del searches[source]
                else:
                    search.stale = True
            elif not search.pending:
                search.hold(link)

    def invalidate(self, links: Optional[Iterable[Link]] = None) -> None:
        self.reroutes += 1
        if links is None:
            self._searches.clear()
            return
        links = tuple(links)
        searches = self._searches
        for source in list(searches):
            search = searches[source]
            if (
                search.stale
                or search.used_hold()
                or any(search.touched(link) for link in links)
            ):
                del searches[source]
            else:
                search.release()
                search.pending = True
                self.searches_kept += 1

    def stats(self) -> Dict[str, int]:
        return {
            "searches": self.misses,
            "nodes_settled": self.nodes_settled,
            "leaves_attached": self.leaves_attached,
            "reroutes": self.reroutes,
            "searches_kept": self.searches_kept,
        }


_SENTINEL = object()


class DynamicRouting(RoutingService):
    """The "perfect routing protocol": wraps another service and
    reacts to link/node failures by instantaneously recomputing
    shortest paths (paper Sec. 2.3, 4.3).

    Every reroute goes through :meth:`invalidate` with the links whose
    up state changed, so the inner service can keep what the change
    did not reach (see :class:`CachedRouting`). Weight changes are
    announced through :meth:`link_changing` and reroute nothing.

    Callbacks registered with :meth:`on_change` fire after every
    recomputation so the emulator can refresh installed routes.
    """

    def __init__(self, inner: RoutingService):
        self._inner = inner
        self._listeners = []
        self.recomputations = 0

    def route(self, src: int, dst: int) -> Optional[Route]:
        return self._inner.route(src, dst)

    def invalidate(self, links: Optional[Iterable[Link]] = None) -> None:
        self._inner.invalidate(links)
        self.recomputations += 1
        for listener in self._listeners:
            listener()

    def link_changing(self, link: Link) -> None:
        self._inner.link_changing(link)

    def stats(self) -> Dict[str, int]:
        return self._inner.stats()

    def on_change(self, fn) -> None:
        self._listeners.append(fn)

    def link_failed(self, link: Link) -> None:
        """Mark ``link`` down and reroute around it."""
        link.up = False
        self.invalidate((link,))

    def link_recovered(self, link: Link) -> None:
        """Mark ``link`` up and rebalance routes."""
        link.up = True
        self.invalidate((link,))

    def node_failed(self, topology: Topology, node_id: int) -> None:
        """Fail every link incident to ``node_id``."""
        links = topology.links_of(node_id)
        for link in links:
            link.up = False
        self.invalidate(links)

    def node_recovered(self, topology: Topology, node_id: int) -> None:
        links = topology.links_of(node_id)
        for link in links:
            link.up = True
        self.invalidate(links)
