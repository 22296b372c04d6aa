"""The benchmark's four workloads.

Each workload is a fixed batch job. ``make_inputs(seed)`` generates
everything the program is handed — topology, flow pairs, fault plan —
from the seed alone; ``scenario(inputs, variant)`` turns those inputs
into a :class:`repro.Scenario` through the public API. Load is
generated inside virtual time by the emulated TCP senders, so there is
no host-side arrival process: a run is "emulate ``horizon_s`` virtual
seconds of this input", and speed is work completed per host second.

``variant`` is ``"measured"`` (the configuration the benchmark times)
or ``"serial"`` (for ``ring_mp2`` only: the same spec on the
serial-partitioned engine, which dispatches the identical event
stream; used for the outcome cross-check and the worker-side trace).
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass
from typing import Callable, Dict, List

from repro import FaultPlan, Scenario
from repro.apps.netperf import TcpStream, UdpCbrSource, UdpSink
from repro.core.assign import Assignment
from repro.faults import LinkDown, LinkUp, Perturbation
from repro.hardware.calibration import GIGABIT_EDGE_SPEC
from repro.topology.generators import chain_topology, dumbbell_topology
from repro.topology.graph import NodeKind, Topology
from repro.topology.transit_stub import TransitStubSpec, transit_stub_topology


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: Virtual seconds emulated per run (the whole horizon is timed).
    horizon_s: float
    make_inputs: Callable[[int], Dict]
    scenario: Callable[[Dict, str], Scenario]
    #: The input size, recorded with every result.
    params: Dict
    multiprocess: bool = False


def _rng(workload: str, seed: int) -> random.Random:
    # A string seed hashes deterministically (random's version-2 seeding).
    return random.Random(f"perfbench:{workload}:{seed}")


def start_streams(emulation, pairs, starts, udp_rate_bps=None) -> List:
    """Traffic set-up: one flow per (sender node, receiver node) pair,
    starting at the given virtual times — bulk TCP, or constant-rate
    UDP when ``udp_rate_bps`` is given. Returns one object per flow
    whose ``bytes_received`` counts what arrived."""
    vn_of_node = {vn.node_id: vn.vn_id for vn in emulation.vns}
    flows = []
    for (src, dst), start in zip(pairs, starts):
        src_vn, dst_vn = vn_of_node[src], vn_of_node[dst]
        if udp_rate_bps is None:
            flows.append(TcpStream(emulation, src_vn, dst_vn, start_at=start))
        else:
            flows.append(UdpSink(emulation.vn(dst_vn)))
            UdpCbrSource(emulation.vn(src_vn), dst_vn, udp_rate_bps, start_at=start)
    return flows


class _Streams:
    """Traffic callback handed to :meth:`Scenario.traffic`. Looks
    :func:`start_streams` up at call time so the traced run's wrapper
    around it is the one called."""

    def __init__(self, pairs, starts, udp_rate_bps=None) -> None:
        self.pairs = pairs
        self.starts = starts
        self.udp_rate_bps = udp_rate_bps

    def __call__(self, emulation):
        return start_streams(emulation, self.pairs, self.starts, self.udp_rate_bps)


# ----------------------------------------------------------------------
# dumbbell_tcp
# ----------------------------------------------------------------------

DUMBBELL_FLOWS = 4


def dumbbell_inputs(seed: int) -> Dict:
    rng = _rng("dumbbell_tcp", seed)
    topology = dumbbell_topology(DUMBBELL_FLOWS)
    left = sorted(n.id for n in topology.clients() if n.attrs.get("side") == "left")
    right = sorted(n.id for n in topology.clients() if n.attrs.get("side") == "right")
    rng.shuffle(right)
    return {
        "topology": topology,
        "pairs": list(zip(left, right)),
        "starts": [rng.uniform(0.0, 0.05) for _ in left],
    }


def dumbbell_scenario(inputs: Dict, variant: str) -> Scenario:
    return (
        Scenario.from_topology(inputs["topology"], name="dumbbell_tcp")
        .distill("hop-by-hop")
        .assign(1)
        .traffic(_Streams(inputs["pairs"], inputs["starts"]))
        .observe(False)
        .seed(inputs["seed"])
    )


# ----------------------------------------------------------------------
# chain8_capacity
# ----------------------------------------------------------------------

CHAIN_FLOWS = 96
CHAIN_HOPS = 8


def chain_inputs(seed: int) -> Dict:
    rng = _rng("chain8_capacity", seed)
    topology = chain_topology(CHAIN_FLOWS, hops=CHAIN_HOPS)
    clients = sorted(n.id for n in topology.clients())
    senders = [n for n in clients if topology.nodes[n].attrs.get("role") == "sender"]
    receivers = [n for n in clients if topology.nodes[n].attrs.get("role") == "receiver"]
    return {
        "topology": topology,
        # Each chain is private: sender i reaches only receiver i.
        "pairs": list(zip(senders, receivers)),
        "starts": [rng.uniform(0.0, 0.02) for _ in senders],
    }


def chain_scenario(inputs: Dict, variant: str) -> Scenario:
    return (
        Scenario.from_topology(inputs["topology"], name="chain8_capacity")
        .distill("hop-by-hop")
        .assign(1)
        .bind(10)
        .config(edge_spec=GIGABIT_EDGE_SPEC)
        .traffic(_Streams(inputs["pairs"], inputs["starts"]))
        .observe(False)
        .seed(inputs["seed"])
    )


# ----------------------------------------------------------------------
# transit_churn
# ----------------------------------------------------------------------

TRANSIT_SPEC = dict(
    transit_domains=2,
    transit_nodes_per_domain=10,
    stub_domains_per_transit_node=5,
    stub_nodes_per_domain=10,
    clients_per_stub_node=2,
)
TRANSIT_FLOWS = 20
#: Constant-rate UDP keeps every sender active between flaps, so each
#: flap costs one route recompute per sender whatever the seed.
TRANSIT_RATE_BPS = 0.25e6
TRANSIT_PATH_HOPS = 9
TRANSIT_CORES = 4
TRANSIT_HORIZON_S = 1.0
FLAP_EVERY_S = 0.2
FLAP_DOWN_S = 0.1
#: Seed of the graph, the flow pairs and the run (core assignment and
#: perturbation draws). They decide which flows cross which cores and
#: so the p99 error; holding them fixed keeps the fidelity guard the
#: same for every ``--seed``, as on the other workloads.
TRANSIT_LAYOUT_SEED = 0


def _path_hops(topology: Topology, src: int) -> Dict[int, int]:
    """Hop count of the lowest-latency path from ``src`` to every node
    (fewest hops among equal latencies)."""
    best = {src: (0.0, 0)}
    heap = [(0.0, 0, src)]
    while heap:
        latency, hops, node = heapq.heappop(heap)
        if best[node] < (latency, hops):
            continue
        for link in topology.links_of(node):
            other = link.b if link.a == node else link.a
            candidate = (latency + link.latency_s, hops + 1)
            if other not in best or candidate < best[other]:
                best[other] = candidate
                heapq.heappush(heap, (*candidate, other))
    return {node: hops for node, (_, hops) in best.items()}


def transit_inputs(seed: int) -> Dict:
    layout = _rng("transit_churn", TRANSIT_LAYOUT_SEED)
    topology = transit_stub_topology(TransitStubSpec(**TRANSIT_SPEC), layout)
    clients = sorted(n.id for n in topology.clients())
    # Every flow crosses the same number of hops.
    pairs = []
    used = set()
    while len(pairs) < TRANSIT_FLOWS:
        src = layout.choice(clients)
        if src in used:
            continue
        hops = _path_hops(topology, src)
        candidates = [
            dst for dst in clients
            if dst not in used and dst != src and hops.get(dst) == TRANSIT_PATH_HOPS
        ]
        if not candidates:
            continue
        dst = layout.choice(candidates)
        used.update((src, dst))
        pairs.append((src, dst))
    # The seed decides which router links flap and when each flow starts.
    rng = _rng("transit_churn", seed)
    router_links = sorted(
        link.id
        for link in topology.links.values()
        if topology.nodes[link.a].kind is not NodeKind.CLIENT
        and topology.nodes[link.b].kind is not NodeKind.CLIENT
    )
    events = []
    t = FLAP_EVERY_S / 2
    while t + FLAP_DOWN_S < TRANSIT_HORIZON_S:
        link_id = rng.choice(router_links)
        events.append(LinkDown(round(t, 6), link_id))
        events.append(LinkUp(round(t + FLAP_DOWN_S, 6), link_id))
        t += FLAP_EVERY_S
    events.append(
        Perturbation(
            start_s=0.25,
            stop_s=TRANSIT_HORIZON_S,
            period_s=0.5,
            link_fraction=0.1,
            latency_scale=(1.0, 1.1),
        )
    )
    return {
        "topology": topology,
        "pairs": pairs,
        "starts": [rng.uniform(0.0, 0.01) for _ in pairs],
        "faults": FaultPlan.of(*events),
    }


def transit_scenario(inputs: Dict, variant: str) -> Scenario:
    return (
        Scenario.from_topology(inputs["topology"], name="transit_churn")
        .distill("hop-by-hop")
        .assign(TRANSIT_CORES)
        .traffic(_Streams(inputs["pairs"], inputs["starts"], TRANSIT_RATE_BPS))
        .faults(inputs["faults"])
        .observe(False)
        .seed(TRANSIT_LAYOUT_SEED)
    )


# ----------------------------------------------------------------------
# ring_mp2
# ----------------------------------------------------------------------

RING_ROUTERS = 8
RING_VNS_PER_ROUTER = 2
RING_DOMAINS = 4
RING_WORKERS = 2


def ring_inputs(seed: int) -> Dict:
    """ring8x2 where every flow joins opposite routers, in a
    seed-chosen order. Clients are attached flow by flow,
    so the program's sequential pairing (VN 2i -> 2i+1) yields exactly
    these flows. Each router keeps two clients whatever the seed, and
    each domain owns two adjacent routers, so every seed puts the same
    amount of work on every domain and across every barrier."""
    rng = _rng("ring_mp2", seed)
    topology = Topology("ring8x2")
    routers = [topology.add_node(NodeKind.STUB).id for _ in range(RING_ROUTERS)]
    per_domain = RING_ROUTERS // RING_DOMAINS
    link_to_core = {}
    for index, router in enumerate(routers):
        link = topology.add_link(router, routers[(index + 1) % RING_ROUTERS], 20e6, 0.002)
        link_to_core[link.id] = index // per_domain
    half = RING_ROUTERS // 2
    # One flow each way between every pair of opposite routers; the
    # seed orders them, which decides VN numbering and placement.
    flows = [(i, i + half) for i in range(half)] + [(i + half, i) for i in range(half)]
    rng.shuffle(flows)
    for flow in flows:
        for index in flow:
            client = topology.add_node(NodeKind.CLIENT)
            link = topology.add_link(routers[index], client.id, 2e6, 0.001)
            link_to_core[link.id] = index // per_domain
    return {
        "topology": topology,
        "flows": len(flows),
        "assignment": Assignment(RING_DOMAINS, link_to_core),
    }


def ring_scenario(inputs: Dict, variant: str) -> Scenario:
    backend = (
        ("multiprocess", RING_WORKERS) if variant == "measured" else ("serial", None)
    )
    return (
        Scenario.from_topology(inputs["topology"], name="ring_mp2")
        .distill("hop-by-hop")
        .assign(assignment=inputs["assignment"])
        .workload("netperf", flows=inputs["flows"], pairing="sequential")
        .observe(False)
        .seed(inputs["seed"])
        .backend(backend[0], domains=RING_DOMAINS, workers=backend[1])
    )


def _seeded(make: Callable[[int], Dict]) -> Callable[[int], Dict]:
    def make_inputs(seed: int) -> Dict:
        inputs = make(seed)
        inputs["seed"] = seed
        return inputs

    return make_inputs


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "dumbbell_tcp",
            "4 TCP flows through one 1.5 Mb/s bottleneck on one core: "
            "dispatch loop, physical links, edge hops and TCP per packet",
            90.0,
            _seeded(dumbbell_inputs),
            dumbbell_scenario,
            {"flows": DUMBBELL_FLOWS, "bottleneck_bps": 1.5e6, "cores": 1},
        ),
        Workload(
            "chain8_capacity",
            "96 flows over private 8-hop chains at gigabit edges: the "
            "CPU-bound heap-of-pipes tick path of the paper's Fig. 4",
            0.4,
            _seeded(chain_inputs),
            chain_scenario,
            {"flows": CHAIN_FLOWS, "hops": CHAIN_HOPS, "cores": 1, "edge_nic_bps": 1e9},
        ),
        Workload(
            "transit_churn",
            "3k-node transit-stub net, 4 cores, 20 UDP flows, link flaps and "
            "latency perturbation: route recomputes and quadratic assignment",
            TRANSIT_HORIZON_S,
            _seeded(transit_inputs),
            transit_scenario,
            {
                **TRANSIT_SPEC,
                "flows": TRANSIT_FLOWS,
                "udp_rate_bps": TRANSIT_RATE_BPS,
                "path_hops": TRANSIT_PATH_HOPS,
                "cores": TRANSIT_CORES,
                "flap_every_s": FLAP_EVERY_S,
                "flap_down_s": FLAP_DOWN_S,
            },
        ),
        Workload(
            "ring_mp2",
            "ring8x2 on 4 domains across 2 worker processes: the only "
            "workload where the multiprocess barrier layer runs",
            2.0,
            _seeded(ring_inputs),
            ring_scenario,
            {
                "routers": RING_ROUTERS,
                "vns_per_router": RING_VNS_PER_ROUTER,
                "domains": RING_DOMAINS,
                "workers": RING_WORKERS,
            },
            multiprocess=True,
        ),
    )
}


def flow_bytes(scenario: Scenario) -> List[int]:
    """Bytes received per flow, in flow order, from the traffic handles
    of a run that executed in this process."""
    out: List[int] = []
    for handle in scenario.traffic_handles:
        streams = getattr(handle, "streams", handle)
        out.extend(stream.bytes_received for stream in streams)
    return out
