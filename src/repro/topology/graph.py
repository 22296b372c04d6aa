"""Core graph types for target topologies."""

from __future__ import annotations

import enum
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple


class TopologyError(ValueError):
    """Raised for malformed topology operations."""


class NodeKind(enum.Enum):
    """Node roles, borrowing the transit-stub taxonomy of [3].

    CLIENT nodes are the attachment points for virtual nodes (VNs);
    STUB and TRANSIT nodes are interior routers.
    """

    CLIENT = "client"
    STUB = "stub"
    TRANSIT = "transit"

    @classmethod
    def parse(cls, text: str) -> "NodeKind":
        try:
            return cls(text.lower())
        except ValueError:
            raise TopologyError(f"unknown node kind {text!r}") from None


class LinkKind(enum.Enum):
    """Link classes used when assigning default attributes."""

    CLIENT_STUB = "client-stub"
    STUB_STUB = "stub-stub"
    STUB_TRANSIT = "stub-transit"
    TRANSIT_TRANSIT = "transit-transit"


class Node:
    """A topology node. ``attrs`` holds free-form annotations."""

    __slots__ = ("id", "kind", "attrs")

    def __init__(self, node_id: int, kind: NodeKind, **attrs: Any):
        self.id = node_id
        self.kind = kind
        self.attrs: Dict[str, Any] = attrs

    def __repr__(self) -> str:
        return f"<Node {self.id} {self.kind.value}>"


class Link:
    """An undirected, full-duplex link.

    The emulator instantiates one unidirectional pipe per direction,
    each with these attributes. ``up`` supports fault injection.
    """

    __slots__ = (
        "id",
        "a",
        "b",
        "bandwidth_bps",
        "latency_s",
        "loss_rate",
        "queue_limit",
        "cost",
        "up",
        "attrs",
    )

    def __init__(
        self,
        link_id: int,
        a: int,
        b: int,
        bandwidth_bps: float,
        latency_s: float,
        loss_rate: float = 0.0,
        queue_limit: int = 50,
        cost: float = 1.0,
        **attrs: Any,
    ):
        if a == b:
            raise TopologyError(f"self-loop on node {a}")
        if bandwidth_bps <= 0:
            raise TopologyError(f"link {a}-{b}: bandwidth must be positive")
        if latency_s < 0:
            raise TopologyError(f"link {a}-{b}: negative latency")
        if not 0.0 <= loss_rate < 1.0:
            raise TopologyError(f"link {a}-{b}: loss rate {loss_rate} not in [0,1)")
        if queue_limit < 1:
            raise TopologyError(f"link {a}-{b}: queue limit must be >= 1")
        self.id = link_id
        self.a = a
        self.b = b
        self.bandwidth_bps = float(bandwidth_bps)
        self.latency_s = float(latency_s)
        self.loss_rate = float(loss_rate)
        self.queue_limit = int(queue_limit)
        self.cost = float(cost)
        self.up = True
        self.attrs: Dict[str, Any] = attrs

    def other(self, node_id: int) -> int:
        """The endpoint opposite ``node_id``."""
        if node_id == self.a:
            return self.b
        if node_id == self.b:
            return self.a
        raise TopologyError(f"node {node_id} is not an endpoint of link {self.id}")

    @property
    def reliability(self) -> float:
        return 1.0 - self.loss_rate

    def __repr__(self) -> str:
        mbps = self.bandwidth_bps / 1e6
        ms = self.latency_s * 1e3
        return f"<Link {self.id} {self.a}-{self.b} {mbps:g}Mb/s {ms:g}ms>"


class Topology:
    """An undirected multigraph of :class:`Node` and :class:`Link`.

    Node and link ids are small integers assigned on insertion (or
    chosen by the caller for nodes, e.g. when parsing GML).

    A *leaf* is a node with exactly one link, up or down (a client
    attach point, typically); the far end of that link is its
    *attachment node*. Route searches relax only into non-leaf nodes
    (:meth:`core_adjacency`) and attach leaves on lookup
    (:meth:`leaves`). Both views are built on first use, dropped by
    every structural edit, and never pickled.
    """

    def __init__(self, name: str = "topology"):
        self.name = name
        self.nodes: Dict[int, Node] = {}
        self.links: Dict[int, Link] = {}
        self._adjacency: Dict[int, List[Link]] = {}
        self._next_node_id = 0
        self._next_link_id = 0
        self._core: Optional[Dict[int, Tuple[Tuple[int, Link], ...]]] = None
        self._leaves: Optional[Dict[int, Tuple[Link, int]]] = None

    def __getstate__(self) -> Dict[str, Any]:
        state = self.__dict__.copy()
        state["_core"] = state["_leaves"] = None
        return state

    # -- construction -------------------------------------------------

    def add_node(
        self,
        kind: NodeKind = NodeKind.CLIENT,
        node_id: Optional[int] = None,
        **attrs: Any,
    ) -> Node:
        """Add a node of ``kind``; ids auto-assign unless given."""
        if node_id is None:
            node_id = self._next_node_id
        if node_id in self.nodes:
            raise TopologyError(f"duplicate node id {node_id}")
        node = Node(node_id, kind, **attrs)
        self.nodes[node_id] = node
        self._adjacency[node_id] = []
        self._next_node_id = max(self._next_node_id, node_id + 1)
        self._core = self._leaves = None
        return node

    def add_link(
        self,
        a: int,
        b: int,
        bandwidth_bps: float,
        latency_s: float,
        loss_rate: float = 0.0,
        queue_limit: int = 50,
        cost: float = 1.0,
        **attrs: Any,
    ) -> Link:
        """Add an undirected link between nodes ``a`` and ``b``."""
        for end in (a, b):
            if end not in self.nodes:
                raise TopologyError(f"link endpoint {end} is not a node")
        link = Link(
            self._next_link_id,
            a,
            b,
            bandwidth_bps,
            latency_s,
            loss_rate,
            queue_limit,
            cost,
            **attrs,
        )
        self.links[link.id] = link
        self._adjacency[a].append(link)
        self._adjacency[b].append(link)
        self._next_link_id += 1
        self._core = self._leaves = None
        return link

    def remove_link(self, link_id: int) -> None:
        link = self.links.pop(link_id, None)
        if link is None:
            raise TopologyError(f"no link {link_id}")
        self._adjacency[link.a].remove(link)
        self._adjacency[link.b].remove(link)
        self._core = self._leaves = None

    def remove_node(self, node_id: int) -> None:
        """Remove a node that has no links left."""
        links = self._adjacency.get(node_id)
        if links is None:
            raise TopologyError(f"no node {node_id}")
        if links:
            raise TopologyError(f"node {node_id} still has {len(links)} link(s)")
        del self.nodes[node_id]
        del self._adjacency[node_id]
        self._core = self._leaves = None

    # -- queries ------------------------------------------------------

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    @property
    def num_links(self) -> int:
        return len(self.links)

    def node(self, node_id: int) -> Node:
        try:
            return self.nodes[node_id]
        except KeyError:
            raise TopologyError(f"no node {node_id}") from None

    def links_of(self, node_id: int, include_down: bool = True) -> List[Link]:
        links = self._adjacency.get(node_id)
        if links is None:
            raise TopologyError(f"no node {node_id}")
        if include_down:
            return list(links)
        return [link for link in links if link.up]

    def core_adjacency(self) -> Dict[int, Tuple[Tuple[int, Link], ...]]:
        """Per node, the ``(neighbor, link)`` pairs over its non-leaf
        neighbours, down links included. Cached until the next
        structural edit; callers must not mutate it."""
        if self._core is None:
            self._build_search_views()
        return self._core

    def leaves(self) -> Dict[int, Tuple[Link, int]]:
        """Leaf id -> ``(its link, its attachment node)``. Cached like
        :meth:`core_adjacency`."""
        if self._leaves is None:
            self._build_search_views()
        return self._leaves

    def _build_search_views(self) -> None:
        adjacency = self._adjacency
        core = {}
        for node_id, links in adjacency.items():
            pairs = []
            for link in links:
                far = link.b if link.a == node_id else link.a
                if len(adjacency[far]) != 1:
                    pairs.append((far, link))
            core[node_id] = tuple(pairs)
        self._core = core
        self._leaves = {
            node_id: (links[0], links[0].other(node_id))
            for node_id, links in adjacency.items()
            if len(links) == 1
        }

    def neighbors(self, node_id: int, include_down: bool = False) -> Iterator[Tuple[int, Link]]:
        """Yield (neighbor id, link) pairs; down links skipped by default."""
        for link in self._adjacency[node_id]:
            if link.up or include_down:
                yield link.other(node_id), link

    def degree(self, node_id: int) -> int:
        return len(self._adjacency[node_id])

    def link_between(self, a: int, b: int) -> Optional[Link]:
        """The first link between a and b, or None."""
        for link in self._adjacency.get(a, ()):
            if link.other(a) == b:
                return link
        return None

    def clients(self) -> List[Node]:
        return self.nodes_of_kind(NodeKind.CLIENT)

    def nodes_of_kind(self, kind: NodeKind) -> List[Node]:
        return [n for n in self.nodes.values() if n.kind is kind]

    def connected_components(self) -> List[List[int]]:
        """Connected components over up links, as lists of node ids."""
        seen: set[int] = set()
        components: List[List[int]] = []
        for start in self.nodes:
            if start in seen:
                continue
            stack = [start]
            seen.add(start)
            component = []
            while stack:
                current = stack.pop()
                component.append(current)
                for neighbor, _link in self.neighbors(current):
                    if neighbor not in seen:
                        seen.add(neighbor)
                        stack.append(neighbor)
            components.append(sorted(component))
        return components

    def is_connected(self) -> bool:
        return self.num_nodes > 0 and len(self.connected_components()) == 1

    def copy(self, name: Optional[str] = None) -> "Topology":
        """Deep-enough copy: fresh Node/Link objects, shallow attrs."""
        clone = Topology(name or self.name)
        for node in self.nodes.values():
            clone.add_node(node.kind, node_id=node.id, **dict(node.attrs))
        for link in sorted(self.links.values(), key=lambda l: l.id):
            new = clone.add_link(
                link.a,
                link.b,
                link.bandwidth_bps,
                link.latency_s,
                link.loss_rate,
                link.queue_limit,
                link.cost,
                **dict(link.attrs),
            )
            new.up = link.up
        return clone

    def validate(self) -> None:
        """Raise :class:`TopologyError` on structural inconsistencies."""
        for link in self.links.values():
            if link.a not in self.nodes or link.b not in self.nodes:
                raise TopologyError(f"link {link.id} references missing node")
        for node_id, links in self._adjacency.items():
            for link in links:
                if link.id not in self.links:
                    raise TopologyError(
                        f"adjacency of node {node_id} references removed link"
                    )

    def __repr__(self) -> str:
        return (
            f"<Topology {self.name!r} nodes={self.num_nodes} "
            f"links={self.num_links}>"
        )
