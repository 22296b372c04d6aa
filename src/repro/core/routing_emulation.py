"""Emulated routing protocols inside the core (paper Sec. 2.3).

The prototype assumed a "perfect" routing protocol: instantaneous
all-pairs shortest paths after any failure. The paper describes the
planned alternative — "emulate the propagation and processing of
routing protocol packets within a ModelNet routing module without
involving edge nodes ... capture the latency and communication
overhead associated with routing protocol code while leaving the edge
hosts unmodified."

:class:`DistanceVectorRouting` implements that module as a RIP-style
distance-vector protocol: every topology node keeps a
distance/next-hop vector; when a node's vector changes it advertises
to its neighbors after a processing delay, and the advertisement
crosses the link at the link's latency. Failures are detected by the
link's endpoints and ripple outward; split horizon with poison
reverse damps count-to-infinity, bounded by an infinity metric of 16
hops as in RIP.

While the protocol converges, the emulation forwards along the
*current* tables: transient blackholes and loops make packets
unroutable, exactly the effect the perfect-routing assumption hides.
The module plugs in as the emulation's routing service.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.engine.simulator import Simulator
from repro.routing.shortest_path import Hop, Route
from repro.routing.service import RoutingService
from repro.topology.graph import Link, Topology

#: RIP's infinity: destinations at this metric are unreachable.
INFINITY_METRIC = 16


class DistanceVectorRouting(RoutingService):
    """A RIP-like distance-vector protocol emulated over the topology.

    ``processing_delay_s`` models the router's protocol code; each
    advertisement also pays the link's propagation latency.
    Advertisement size is tracked so experiments can account for the
    control-plane traffic the paper wants to capture.
    """

    def __init__(
        self,
        sim: Simulator,
        topology: Topology,
        processing_delay_s: float = 0.010,
        converged_start: bool = True,
    ):
        self.sim = sim
        self.topology = topology
        self.processing_delay_s = processing_delay_s
        self._nodes = sorted(topology.nodes)
        # distance[node][dest] and next_hop[node][dest] -> neighbor id
        self.distance: Dict[int, Dict[int, int]] = {}
        self.next_hop: Dict[int, Dict[int, Optional[int]]] = {}
        self._listeners: List[Callable[[], None]] = []
        self._pending_advert: Dict[int, bool] = {}
        self.messages_sent = 0
        self.bytes_sent = 0
        self.triggered_updates = 0
        for node in self._nodes:
            self.distance[node] = {dest: INFINITY_METRIC for dest in self._nodes}
            self.distance[node][node] = 0
            self.next_hop[node] = {dest: None for dest in self._nodes}
            self._pending_advert[node] = False
        if converged_start:
            self._converge_offline()
        else:
            for node in self._nodes:
                self._schedule_advertisement(node)

    # ------------------------------------------------------------------
    # Offline initialization (a converged steady state)
    # ------------------------------------------------------------------

    def _converge_offline(self) -> None:
        """Initialize tables to the converged state (the emulation
        usually starts from a long-running network)."""
        from collections import deque

        for dest in self._nodes:
            queue = deque([dest])
            seen = {dest}
            while queue:
                current = queue.popleft()
                for neighbor, _link in self.topology.neighbors(current):
                    if neighbor in seen:
                        continue
                    seen.add(neighbor)
                    self.distance[neighbor][dest] = (
                        self.distance[current][dest] + 1
                    )
                    self.next_hop[neighbor][dest] = current
                    queue.append(neighbor)

    # ------------------------------------------------------------------
    # Protocol machinery
    # ------------------------------------------------------------------

    def on_change(self, fn: Callable[[], None]) -> None:
        """Register a callback fired whenever any table changes."""
        self._listeners.append(fn)

    def _tables_changed(self) -> None:
        for listener in self._listeners:
            listener()

    def _schedule_advertisement(self, node: int) -> None:
        """Triggered update: after the processing delay, advertise the
        node's vector to each live neighbor (coalescing bursts)."""
        if self._pending_advert[node]:
            return
        self._pending_advert[node] = True
        self.sim.schedule(self.processing_delay_s, self._advertise, node)

    def _advertise(self, node: int) -> None:
        self._pending_advert[node] = False
        self.triggered_updates += 1
        vector = self.distance[node]
        for neighbor, link in self.topology.neighbors(node):
            # Split horizon with poison reverse: routes learned via
            # the neighbor are advertised back as unreachable.
            poisoned = {
                dest: (
                    INFINITY_METRIC
                    if self.next_hop[node][dest] == neighbor
                    else metric
                )
                for dest, metric in vector.items()
            }
            self.messages_sent += 1
            # ~4 bytes per route entry, RIPv2-style.
            self.bytes_sent += 24 + 4 * len(poisoned)
            self.sim.schedule(
                link.latency_s, self._receive, neighbor, node, poisoned
            )

    def _receive(self, node: int, from_neighbor: int, vector: Dict[int, int]) -> None:
        link = self.topology.link_between(node, from_neighbor)
        if link is None or not link.up:
            return  # advertisement raced a failure
        changed = False
        table = self.distance[node]
        hops = self.next_hop[node]
        for dest, metric in vector.items():
            candidate = min(metric + 1, INFINITY_METRIC)
            if hops[dest] == from_neighbor:
                # Current route is via this neighbor: always track it,
                # including worsening news.
                if table[dest] != candidate:
                    table[dest] = candidate
                    if candidate >= INFINITY_METRIC:
                        hops[dest] = None
                    changed = True
            elif candidate < table[dest]:
                table[dest] = candidate
                hops[dest] = from_neighbor
                changed = True
        if changed:
            self._tables_changed()
            self._schedule_advertisement(node)

    # ------------------------------------------------------------------
    # Failure handling (detected by link endpoints)
    # ------------------------------------------------------------------

    def link_failed(self, link: Link) -> None:
        """Endpoint detection: poison routes via the dead link and
        start triggered updates rippling outward."""
        # Downstream half of the sanctioned seam: the applier (via
        # Emulation.set_link_up) delegates the up-flag flip here.
        link.up = False  # repro: allow-fault-mutation
        for node, neighbor in ((link.a, link.b), (link.b, link.a)):
            if self.topology.link_between(node, neighbor) is not None and any(
                live.up
                for live in self.topology.links_of(node)
                if live.other(node) == neighbor
            ):
                continue  # a parallel link survives
            table = self.distance[node]
            hops = self.next_hop[node]
            changed = False
            for dest in self._nodes:
                if hops[dest] == neighbor:
                    table[dest] = INFINITY_METRIC
                    hops[dest] = None
                    changed = True
            if changed:
                self._tables_changed()
                self._schedule_advertisement(node)

    def link_recovered(self, link: Link) -> None:
        """Endpoints re-learn the direct route and re-advertise."""
        link.up = True  # repro: allow-fault-mutation
        for node, neighbor in ((link.a, link.b), (link.b, link.a)):
            if self.distance[node][neighbor] > 1:
                self.distance[node][neighbor] = 1
                self.next_hop[node][neighbor] = neighbor
            self._tables_changed()
            self._schedule_advertisement(node)

    # ------------------------------------------------------------------
    # RoutingService interface (forwarding plane)
    # ------------------------------------------------------------------

    def route(self, src: int, dst: int) -> Optional[Route]:
        """Follow current next-hop tables from src to dst. Returns
        None on blackholes or transient loops (the packet would be
        dropped in flight)."""
        if src == dst:
            return ()
        hops: List[Hop] = []
        current = src
        visited = {src}
        while current != dst:
            neighbor = self.next_hop[current].get(dst)
            if neighbor is None or neighbor in visited:
                return None  # blackhole or forwarding loop
            link = self.topology.link_between(current, neighbor)
            if link is None or not link.up:
                return None
            hops.append(Hop(link, current, neighbor))
            visited.add(neighbor)
            current = neighbor
            if len(hops) >= INFINITY_METRIC:
                return None
        return tuple(hops)

    def invalidate(self, links: Optional[Iterable[Link]] = None) -> None:
        """No-op: the protocol's own dynamics govern table state."""

    # ------------------------------------------------------------------
    # Convergence inspection (for experiments)
    # ------------------------------------------------------------------

    def is_converged(self) -> bool:
        """Do the tables match offline BFS hop counts over up links?"""
        from collections import deque

        for dest in self._nodes:
            truth = {dest: 0}
            queue = deque([dest])
            while queue:
                current = queue.popleft()
                for neighbor, _link in self.topology.neighbors(current):
                    if neighbor not in truth:
                        truth[neighbor] = truth[current] + 1
                        queue.append(neighbor)
            for node in self._nodes:
                expected = truth.get(node, INFINITY_METRIC)
                actual = self.distance[node][dest]
                if expected >= INFINITY_METRIC and actual >= INFINITY_METRIC:
                    continue
                if expected != actual:
                    return False
        return True
