"""Assignment: partitioning the distilled topology across core nodes.

The paper uses a greedy k-clusters assignment: for k cores, randomly
select k nodes of the distilled topology as seeds, then greedily
select links from each cluster's current connected component in a
round-robin fashion (Sec. 2.1). The ideal assignment — minimizing
cross-core descriptor traffic under the offered load — is
NP-complete; this heuristic keeps clusters connected so most
consecutive pipes on a route share a core.
"""

from __future__ import annotations

import heapq
import random
from typing import Dict, List, Optional, Sequence

from repro.topology.graph import Link, Topology, TopologyError


class Assignment:
    """A mapping of topology links (and hence pipes) to core indices.

    Construction validates its inputs: a silently mis-partitioned
    assignment surfaces later as unroutable packets or a core domain
    with no work, which is far harder to diagnose than a
    :class:`TopologyError` at the call site.

    * every core index must lie in ``range(num_cores)``;
    * every core must own at least one link (pass
      ``allow_empty_cores=True`` for deliberately lopsided
      experiments);
    * when ``topology`` is supplied, every assigned link id must
      exist in it.
    """

    def __init__(
        self,
        num_cores: int,
        link_to_core: Dict[int, int],
        topology: Optional[Topology] = None,
        allow_empty_cores: bool = False,
    ):
        if num_cores < 1:
            raise TopologyError("need at least one core")
        populated = set()
        for link_id, core in link_to_core.items():
            if not isinstance(core, int) or not 0 <= core < num_cores:
                raise TopologyError(
                    f"link {link_id} assigned to invalid core {core!r} "
                    f"(valid cores: 0..{num_cores - 1})"
                )
            populated.add(core)
        if topology is not None:
            unknown = sorted(
                link_id
                for link_id in link_to_core
                if link_id not in topology.links
            )
            if unknown:
                raise TopologyError(
                    f"assignment references link id(s) {unknown} absent "
                    f"from topology {topology.name!r}"
                )
        if link_to_core and not allow_empty_cores:
            empty = sorted(set(range(num_cores)) - populated)
            if empty:
                raise TopologyError(
                    f"core(s) {empty} own no links; a partitioned engine "
                    f"would idle those domains — pass "
                    f"allow_empty_cores=True if this is intentional"
                )
        self.num_cores = num_cores
        self.link_to_core = dict(link_to_core)

    def core_of(self, link_id: int) -> int:
        return self.link_to_core[link_id]

    def links_of_core(self, core: int) -> List[int]:
        return sorted(
            link_id
            for link_id, owner in self.link_to_core.items()
            if owner == core
        )

    def load_balance(self) -> List[int]:
        """Links per core (a crude emulation-load proxy)."""
        counts = [0] * self.num_cores
        for core in self.link_to_core.values():
            counts[core] += 1
        return counts

    def __repr__(self) -> str:
        return f"<Assignment cores={self.num_cores} balance={self.load_balance()}>"


def single_core(topology: Topology) -> Assignment:
    """Everything on core 0."""
    return Assignment(
        1, {link_id: 0 for link_id in topology.links}, topology=topology
    )


def greedy_k_clusters(
    topology: Topology,
    num_cores: int,
    rng: random.Random,
) -> Assignment:
    """The paper's greedy k-clusters heuristic.

    Seeds ``num_cores`` clusters on distinct random nodes, then, round
    robin, gives each cluster the first unassigned link of its
    lowest-id member node that still has one (links in
    :meth:`Topology.links_of` order). A cluster whose component is
    exhausted re-seeds on the lowest-id unassigned link, so every
    cluster still takes one link per round.

    Each cluster walks a frontier instead of rescanning its members:
    a min-heap of its member ids (pushed as links join the cluster),
    plus one shared per-node cursor into that node's link list. Links
    never return to unassigned, so an exhausted node is popped for
    good and a cursor only moves forward. The whole pass costs
    O((nodes + links) log links) and calls ``links_of`` at most once
    per node.
    """
    if num_cores < 1:
        raise TopologyError("need at least one core")
    if num_cores == 1:
        return single_core(topology)
    node_ids = sorted(topology.nodes)
    if len(node_ids) < num_cores:
        raise TopologyError(
            f"{num_cores} cores but only {len(node_ids)} topology nodes"
        )
    if len(topology.links) < num_cores:
        raise TopologyError(
            f"{num_cores} cores but only {len(topology.links)} topology "
            f"links; every core needs at least one link"
        )
    seeds = rng.sample(node_ids, num_cores)
    frontiers: List[List[int]] = [[seed] for seed in seeds]
    link_to_core: Dict[int, int] = {}
    #: Per node: its links, and the index of the first one that may
    #: still be unassigned (shared by every cluster holding the node).
    adjacency: Dict[int, List[Link]] = {}
    cursor: Dict[int, int] = {}
    by_id = sorted(topology.links)
    reseed_at = 0

    def next_unassigned(node_id: int) -> Optional[Link]:
        links = adjacency.get(node_id)
        if links is None:
            links = adjacency[node_id] = topology.links_of(node_id)
        index = cursor.get(node_id, 0)
        while index < len(links) and links[index].id in link_to_core:
            index += 1
        cursor[node_id] = index
        return links[index] if index < len(links) else None

    while len(link_to_core) < len(by_id):
        for core_index in range(num_cores):
            if len(link_to_core) == len(by_id):
                break
            frontier = frontiers[core_index]
            link = None
            while frontier:
                link = next_unassigned(frontier[0])
                if link is not None:
                    break
                heapq.heappop(frontier)
            if link is None:
                # This cluster's component is exhausted: re-seed it on
                # a fresh link so every cluster still takes one link
                # per round (keeps emulation load balanced).
                while by_id[reseed_at] in link_to_core:
                    reseed_at += 1
                link = topology.links[by_id[reseed_at]]
            link_to_core[link.id] = core_index
            heapq.heappush(frontier, link.a)
            heapq.heappush(frontier, link.b)
    return Assignment(num_cores, link_to_core, topology=topology)


def assign_by_vn_groups(
    topology: Topology,
    groups: Sequence[Sequence[int]],
) -> Assignment:
    """Explicit assignment used by controlled experiments (Table 1):
    each group of client nodes claims its access links; remaining
    links go to the core with the fewest links."""
    num_cores = len(groups)
    node_to_core: Dict[int, int] = {}
    for core_index, group in enumerate(groups):
        for node_id in group:
            node_to_core[node_id] = core_index
    link_to_core: Dict[int, int] = {}
    leftovers: List[int] = []
    for link in topology.links.values():
        core = node_to_core.get(link.a, node_to_core.get(link.b))
        if core is None:
            leftovers.append(link.id)
        else:
            link_to_core[link.id] = core
    counts = [0] * num_cores
    for core in link_to_core.values():
        counts[core] += 1
    for link_id in sorted(leftovers):
        target = counts.index(min(counts))
        link_to_core[link_id] = target
        counts[target] += 1
    return Assignment(num_cores, link_to_core, topology=topology)


def cross_core_hops(topology: Topology, assignment: Assignment, routes) -> float:
    """Fraction of consecutive-pipe pairs (across ``routes``) whose
    pipes live on different cores — the metric the assignment tries
    to minimize."""
    crossings = 0
    pairs = 0
    for route in routes:
        for earlier, later in zip(route, route[1:]):
            pairs += 1
            if assignment.core_of(earlier.link.id) != assignment.core_of(
                later.link.id
            ):
                crossings += 1
    return crossings / pairs if pairs else 0.0
