"""Dijkstra shortest paths and route utilities."""

from __future__ import annotations

import heapq
from operator import attrgetter
from typing import Callable, Dict, List, Optional, Set, Tuple, Union

from repro.topology.graph import Link, Topology


class RouteError(RuntimeError):
    """Raised when a requested route cannot be produced."""


class Hop:
    """One directed traversal of a link, from ``src`` to ``dst``."""

    __slots__ = ("link", "src", "dst")

    def __init__(self, link: Link, src: int, dst: int):
        self.link = link
        self.src = src
        self.dst = dst

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Hop):
            return NotImplemented
        return (
            self.link is other.link
            and self.src == other.src
            and self.dst == other.dst
        )

    def __hash__(self) -> int:
        return hash((id(self.link), self.src, self.dst))

    def __repr__(self) -> str:
        return f"<Hop {self.src}->{self.dst} via link {self.link.id}>"


Route = Tuple[Hop, ...]

WeightSpec = Union[str, Callable[[Link], float]]


def _weight_fn(weight: WeightSpec) -> Callable[[Link], float]:
    if callable(weight):
        return weight
    if weight == "latency":
        return attrgetter("latency_s")
    if weight == "hops":
        return lambda link: 1.0
    if weight == "cost":
        return attrgetter("cost")
    raise RouteError(f"unknown weight spec {weight!r}")


_INF = float("inf")


class ShortestPathSearch:
    """A resumable single-source Dijkstra over up links.

    Its state is ``dist``, ``prev``, the ``settled`` set and the heap.
    :meth:`settle` pops until a given destination is settled (or the
    heap is empty) and pauses there; a later call resumes from the
    same state. A settled node's ``dist`` and ``prev`` never change
    again, so a paused search answers any settled destination exactly
    as a full run would: the pops and relaxations it has made are the
    first ones of the full run, in the same order, ties included.

    The heap holds only the transit core. A *leaf* is a node other
    than ``source`` with exactly one link, up or down (see
    :class:`Topology`); no leaf is ever a transit hop, so the search
    relaxes only into non-leaf nodes (:meth:`Topology.core_adjacency`)
    and a leaf is *attached* when it is looked up: it settles right
    after its attachment node, at ``dist[attach] + weigh(link)``, if
    its link is up. Dropping leaf entries from the heap leaves the pop
    order of every other node unchanged (entries are ``(dist, node)``
    pairs under a total order), and a leaf has exactly one possible
    ``prev``, so routes and distances are those of a plain Dijkstra.
    A full run (:meth:`settle` with no destination) attaches every
    reachable leaf after the heap drains.

    Link ``L`` has been relaxed exactly when one of its endpoints is
    settled (the first endpoint to settle relaxes it; the second skips
    it). :meth:`touched` is that test. A leaf's link counts as touched
    once its attachment node is settled, whether or not the leaf has
    been attached: a lookup of a leaf behind a down link settles the
    attachment node before answering None, so the reroute that brings
    the link back up sees the search touched it.

    ``weigh`` is read at each relaxation and attachment, so a caller
    may swap it between :meth:`settle` calls (see
    :class:`CachedRouting`'s held weights). ``attached`` counts the
    leaves attached so far.
    """

    __slots__ = (
        "topology",
        "source",
        "weigh",
        "dist",
        "prev",
        "settled",
        "heap",
        "attached",
    )

    def __init__(
        self,
        topology: Topology,
        source: int,
        weight: WeightSpec = "latency",
    ):
        self.topology = topology
        self.source = source
        self.weigh = _weight_fn(weight)
        self.dist: Dict[int, float] = {source: 0.0}
        self.prev: Dict[int, Hop] = {}
        self.settled: Set[int] = set()
        self.heap: List[Tuple[float, int]] = [(0.0, source)]
        self.attached = 0

    def touched(self, link: Link) -> bool:
        """Whether this search has relaxed ``link`` (or skipped it as
        down): one of its endpoints is settled."""
        return link.a in self.settled or link.b in self.settled

    def settle(self, dest: Optional[int] = None) -> bool:
        """Pop until ``dest`` is settled or the heap is empty; with no
        ``dest``, settle everything reachable. Returns whether
        ``dest`` is settled. A leaf ``dest`` settles with its
        attachment node; an unknown one is never settled."""
        settled = self.settled
        if dest in settled:
            return True
        topology = self.topology
        if dest is None:
            self._pop_until(None)
            for leaf, (link, attach) in topology.leaves().items():
                if leaf not in settled and attach in settled and link.up:
                    self._attach(leaf, link, attach)
            return False
        if dest not in topology.nodes:
            return False
        access = topology.leaves().get(dest)
        if access is None or dest == self.source:
            return self._pop_until(dest)
        link, attach = access
        # Settle the attachment node even when the link is down, so
        # that the search counts as having touched it.
        if not self._pop_until(attach) or not link.up:
            return False
        self._attach(dest, link, attach)
        return True

    def _attach(self, leaf: int, link: Link, attach: int) -> None:
        self.dist[leaf] = self.dist[attach] + self.weigh(link)
        self.prev[leaf] = Hop(link, attach, leaf)
        self.settled.add(leaf)
        self.attached += 1

    def _pop_until(self, target: Optional[int]) -> bool:
        """Pop the core until ``target`` is settled or the heap is
        empty; returns whether ``target`` is settled."""
        settled = self.settled
        if target in settled:
            return True
        core = self.topology.core_adjacency()
        weigh = self.weigh
        dist = self.dist
        prev = self.prev
        heap = self.heap
        while heap:
            d, node = heapq.heappop(heap)
            if node in settled:
                continue
            settled.add(node)
            for neighbor, link in core[node]:
                if not link.up or neighbor in settled:
                    continue
                candidate = d + weigh(link)
                if candidate < dist.get(neighbor, _INF):
                    dist[neighbor] = candidate
                    prev[neighbor] = Hop(link, node, neighbor)
                    heapq.heappush(heap, (candidate, neighbor))
            if node == target:
                return True
        return False

    def route_to(self, dest: int) -> Optional[Route]:
        """Settle ``dest`` and materialize its route; None when
        unreachable."""
        if not self.settle(dest):
            return None
        return extract_route(self.prev, self.source, dest)


def dijkstra(
    topology: Topology,
    source: int,
    weight: WeightSpec = "latency",
) -> Tuple[Dict[int, float], Dict[int, Hop]]:
    """Single-source shortest paths over up links: a
    :class:`ShortestPathSearch` run to completion.

    Returns ``(dist, prev)`` where ``prev[node]`` is the :class:`Hop`
    by which ``node`` is reached on its shortest path from ``source``.
    Unreachable nodes are absent from both maps... except ``source``
    itself, present in ``dist`` with distance 0 and absent from
    ``prev``.
    """
    search = ShortestPathSearch(topology, source, weight)
    search.settle()
    return search.dist, search.prev


def extract_route(prev: Dict[int, Hop], source: int, dest: int) -> Optional[Route]:
    """Materialize the route from a ``prev`` map; None if unreachable.

    A route from a node to itself is the empty tuple.
    """
    if dest == source:
        return ()
    if dest not in prev:
        return None
    hops: List[Hop] = []
    node = dest
    while node != source:
        hop = prev[node]
        hops.append(hop)
        node = hop.src
    hops.reverse()
    return tuple(hops)


def route_latency(route: Route) -> float:
    """Sum of link propagation latencies along the route."""
    return sum(hop.link.latency_s for hop in route)


def route_bottleneck_bandwidth(route: Route) -> float:
    """Minimum link bandwidth along the route (inf for empty routes)."""
    if not route:
        return float("inf")
    return min(hop.link.bandwidth_bps for hop in route)


def route_reliability(route: Route) -> float:
    """Product of link reliabilities (1 - loss) along the route."""
    reliability = 1.0
    for hop in route:
        reliability *= hop.link.reliability
    return reliability


def route_cost(route: Route) -> float:
    """Sum of abstract link costs along the route."""
    return sum(hop.link.cost for hop in route)
