"""Binding: VNs onto edge hosts, hosts onto cores (paper Sec. 2.1).

The Binding phase multiplexes multiple VNs onto each physical edge
node, binds each physical node to a single core, and generates the
per-node configuration the Run phase executes. Here the
"configuration scripts" are structured dicts (the analog of the shell
scripts the prototype emits), exercised by tests and usable for
inspection or serialization.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.net.addr import vn_ip
from repro.topology.graph import Topology, TopologyError


class Binding:
    """The result of the Bind phase.

    ``vn_to_host[vn]`` is the edge host index of each VN (VN i is the
    i-th client node in node-id order); ``host_to_core[h]`` is the
    core each host routes through.
    """

    def __init__(
        self,
        vn_nodes: Sequence[int],
        vn_to_host: Sequence[int],
        host_to_core: Sequence[int],
    ):
        if len(vn_nodes) != len(vn_to_host):
            raise TopologyError("vn_to_host must cover every VN")
        for host in vn_to_host:
            if not 0 <= host < len(host_to_core):
                raise TopologyError(f"VN bound to unknown host {host}")
        self.vn_nodes = list(vn_nodes)
        self.vn_to_host = list(vn_to_host)
        self.host_to_core = list(host_to_core)

    @property
    def num_vns(self) -> int:
        return len(self.vn_nodes)

    @property
    def num_hosts(self) -> int:
        return len(self.host_to_core)

    def vns_of_host(self, host: int) -> List[int]:
        return [vn for vn, owner in enumerate(self.vn_to_host) if owner == host]

    def core_of_vn(self, vn: int) -> int:
        return self.host_to_core[self.vn_to_host[vn]]

    def multiplexing_degree(self) -> float:
        """Mean VNs per edge host."""
        return self.num_vns / self.num_hosts if self.num_hosts else 0.0

    def host_configs(self) -> List[Dict]:
        """The per-edge-node configuration "scripts": which VNs to
        instantiate, their IP addresses, and the core to route via."""
        configs = []
        for host in range(self.num_hosts):
            vns = self.vns_of_host(host)
            configs.append(
                {
                    "host": host,
                    "core": self.host_to_core[host],
                    "vns": [
                        {
                            "vn": vn,
                            "ip": vn_ip(vn),
                            "topology_node": self.vn_nodes[vn],
                        }
                        for vn in vns
                    ],
                }
            )
        return configs


def bind_vns(
    topology: Topology,
    num_hosts: int,
    num_cores: int,
    strategy: str = "contiguous",
    vn_nodes: Optional[Sequence[int]] = None,
) -> Binding:
    """Bind the topology's VNs to ``num_hosts`` edge hosts and those
    hosts to ``num_cores`` cores.

    Strategies: "contiguous" packs VN index ranges per host (keeps
    topologically clustered VNs together, as the replicated-web
    experiment does); "round_robin" deals VNs across hosts.
    Hosts bind to cores round-robin either way.
    """
    if num_hosts < 1:
        raise TopologyError("need at least one edge host")
    if vn_nodes is None:
        vn_nodes = sorted(node.id for node in topology.clients())
    count = len(vn_nodes)
    if count == 0:
        raise TopologyError("topology has no client nodes to bind")

    if strategy == "contiguous":
        base, extra = divmod(count, num_hosts)
        vn_to_host = []
        for host in range(num_hosts):
            size = base + (1 if host < extra else 0)
            vn_to_host.extend([host] * size)
    elif strategy == "round_robin":
        vn_to_host = [vn % num_hosts for vn in range(count)]
    else:
        raise TopologyError(f"unknown binding strategy {strategy!r}")

    host_to_core = [host % num_cores for host in range(num_hosts)]
    return Binding(vn_nodes, vn_to_host, host_to_core)


def bind_vns_locality(
    topology: Topology,
    assignment,
    vn_nodes: Optional[Sequence[int]] = None,
) -> Binding:
    """Locality binding: one edge host per client node, bound to the
    core that owns that node's access link.

    This is the partitioned-execution default (see
    ``ExperimentPipeline.bind``), fixing two problems the host-count
    bindings have there. First, load: with ``num_hosts=1`` every VN
    stack, edge link, and ingress interrupt lands on host 0's core —
    one domain dispatches ~4x the events of the others on ring-style
    topologies. Here edge work lands in the domain that owns the
    node's access link, so per-domain load follows the (balanced)
    link assignment. Second, lookahead: a packet's first pipe is
    owned by the very core that admits it, so no cross-domain hop
    happens at the channel floor on entry — every crossing rides a
    pipe latency, which is what keeps the derived lookahead matrix
    in the milliseconds.

    A node with several links is localized on its lowest-id link.
    VNs multiplexed on one topology node share that node's host.
    """
    if vn_nodes is None:
        vn_nodes = sorted(node.id for node in topology.clients())
    if not vn_nodes:
        raise TopologyError("topology has no client nodes to bind")
    nodes = sorted(set(vn_nodes))
    host_of_node = {node_id: index for index, node_id in enumerate(nodes)}
    host_to_core = []
    for node_id in nodes:
        links = sorted(topology.links_of(node_id), key=lambda link: link.id)
        if not links:
            raise TopologyError(
                f"client node {node_id} has no link to localize on"
            )
        host_to_core.append(assignment.core_of(links[0].id))
    vn_to_host = [host_of_node[node_id] for node_id in vn_nodes]
    return Binding(vn_nodes, vn_to_host, host_to_core)
