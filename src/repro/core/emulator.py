"""The Run phase: wiring cores, edge hosts, VN stacks, and routing.

:class:`Emulation` is the public entry point for running traffic
through a distilled topology. It owns:

* a :class:`PipeTable` of two pipes per topology link (one per
  direction), each built the first time a route, a fault or a
  cross-process message needs it, with its owner from the Assignment;
* one :class:`~repro.core.node.CoreNode` per core, with physical NIC
  links when the physical layer is modeled;
* one :class:`EdgeHost` per physical edge node from the Binding, with
  uplink/downlink wires and (optionally) an edge CPU;
* one :class:`VirtualNode` (and :class:`~repro.net.sockets.NetStack`)
  per VN.

Two fidelity regimes are supported via :class:`EmulationConfig`:

* **full** (default) — tick-quantized scheduling, core CPU and NIC
  models, physical cluster links: reproduces the paper's capacity
  and accuracy behaviour, including physical drops under overload;
* **reference** (``EmulationConfig.reference()``) — exact event
  times, infinite hardware: the stand-in for the paper's ns2
  validation runs, and the cheap mode for application-level studies.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from operator import attrgetter
from time import perf_counter
from typing import Dict, Iterator, List, NamedTuple, Optional, Tuple, Union

from repro.core.assign import Assignment
from repro.core.bind import Binding
from repro.core.monitor import EmulationMonitor
from repro.core.node import CoreNode
from repro.core.pipe import Pipe
from repro.core.queues import DROP_TAIL, REDQueue
from repro.engine.randomness import RngRegistry
from repro.engine.simulator import Simulator
from repro.hardware.calibration import (
    CoreSpec,
    DEFAULT_CORE_SPEC,
    DEFAULT_EDGE_SPEC,
    EdgeHostSpec,
)
from repro.hardware.cpu import EdgeCpu
from repro.hardware.links import PhysicalLink
from repro.net.packet import Packet
from repro.net.sockets import NetStack
from repro.obs import MetricsRegistry, NULL_REGISTRY, RunReport, build_report
from repro.net.tcp import TcpParams
from repro.routing.service import CachedRouting, DynamicRouting
from repro.topology.graph import Topology, TopologyError


@dataclass
class EmulationConfig:
    """How to emulate one run: timing, fidelity and execution backend.

    Placement (cores, hosts) and the seed are not knobs here: the
    pipeline's Assign and Bind phases decide them, and
    :class:`Emulation` takes them from its caller."""

    tick_s: float = 1e-4
    debt_handling: bool = False
    payload_caching: bool = True
    model_physical: bool = True
    model_edge_cpu: bool = False
    routing_weight: str = "latency"
    core_spec: CoreSpec = field(default_factory=lambda: DEFAULT_CORE_SPEC)
    edge_spec: EdgeHostSpec = field(default_factory=lambda: DEFAULT_EDGE_SPEC)
    tcp_params: Optional[TcpParams] = None
    #: Execution backend: ``"serial"`` runs every event domain in this
    #: process under the epoch barrier; ``"multiprocess"`` runs one
    #: worker process per domain group (see repro.engine.parallel).
    backend: str = "serial"
    #: Number of event domains. 0 means "pick the backend default":
    #: 1 for serial (the classic single-kernel engine, byte-identical
    #: to the pre-partitioning code path) and one per core for
    #: multiprocess.
    num_domains: int = 0
    #: Worker processes for the multiprocess backend. 0 means one per
    #: domain. Digests are worker-count invariant by construction.
    workers: int = 0

    ROUTING_WEIGHTS = ("latency", "hops", "cost")
    BACKENDS = ("serial", "multiprocess")

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        """Reject configurations that cannot run. Called on
        construction; call again after mutating fields in place."""
        if self.tick_s < 0:
            raise ValueError(f"tick_s must be >= 0, got {self.tick_s}")
        if not callable(self.routing_weight) and (
            self.routing_weight not in self.ROUTING_WEIGHTS
        ):
            raise ValueError(
                f"unknown routing_weight {self.routing_weight!r}; "
                f"valid: {', '.join(self.ROUTING_WEIGHTS)} or a callable"
            )
        if self.backend not in self.BACKENDS:
            raise ValueError(
                f"unknown backend {self.backend!r}; "
                f"valid: {', '.join(self.BACKENDS)}"
            )
        if self.num_domains < 0:
            raise ValueError(
                f"num_domains must be >= 0, got {self.num_domains}"
            )
        if self.workers < 0:
            raise ValueError(f"workers must be >= 0, got {self.workers}")
        if (self.backend == "multiprocess" or self.num_domains > 1) and (
            not self.model_physical
        ):
            raise ValueError(
                "partitioned execution requires model_physical=True: "
                "exact mode tunnels descriptors with zero latency, so "
                "the epoch synchronizer would have no lookahead"
            )

    def resolved_domains(self, num_cores: int) -> int:
        """The domain count of a run on ``num_cores`` cores: explicit
        ``num_domains``, else the backend default (one per core for
        multiprocess, 1 for serial), never more than the core count."""
        if self.num_domains > 0:
            return min(self.num_domains, num_cores)
        if self.backend == "multiprocess":
            return num_cores
        return 1

    @classmethod
    def field_names(cls) -> Tuple[str, ...]:
        return tuple(f.name for f in fields(cls))

    @classmethod
    def reference(cls, **overrides) -> "EmulationConfig":
        """Exact-time, infinite-hardware configuration (the ns2
        stand-in)."""
        config = cls(
            tick_s=0.0,
            model_physical=False,
            model_edge_cpu=False,
        )
        return replace(config, **overrides)

    @property
    def exact(self) -> bool:
        return not self.model_physical


class VirtualNode:
    """One VN: a unique IP, a topology attachment point, a host, and
    a network stack."""

    __slots__ = ("vn_id", "node_id", "host", "stack")

    def __init__(self, vn_id: int, node_id: int, host, stack: NetStack):
        self.vn_id = vn_id
        self.node_id = node_id
        self.host = host
        self.stack = stack

    @property
    def ip(self) -> str:
        return self.stack.ip

    def udp_socket(self, *args, **kwargs):
        return self.stack.udp_socket(*args, **kwargs)

    def tcp_listen(self, *args, **kwargs):
        return self.stack.tcp_listen(*args, **kwargs)

    def tcp_connect(self, *args, **kwargs):
        return self.stack.tcp_connect(*args, **kwargs)

    def __repr__(self) -> str:
        return f"<VN {self.vn_id} node={self.node_id}>"


class EdgeHost:
    """A physical edge node hosting one or more VNs."""

    def __init__(
        self,
        sim: Simulator,
        index: int,
        spec: EdgeHostSpec,
        core: CoreNode,
        emulation: "Emulation",
        model_cpu: bool,
    ):
        self.sim = sim
        self.index = index
        self.spec = spec
        self.core = core
        self.emulation = emulation
        self.uplink = PhysicalLink(
            sim,
            spec.nic_bps,
            spec.link_latency_s,
            spec.nic_queue_slots,
            framing_bytes=spec.framing_bytes,
            name=f"edge{index}-up",
        )
        self.downlink = PhysicalLink(
            sim,
            spec.nic_bps,
            spec.link_latency_s,
            spec.nic_queue_slots,
            framing_bytes=spec.framing_bytes,
            name=f"edge{index}-down",
        )
        self.cpu: Optional[EdgeCpu] = EdgeCpu(sim, spec) if model_cpu else None
        self.vns: List[VirtualNode] = []

    def send_from_vn(self, packet: Packet) -> None:
        """A resident VN's stack emitted a packet."""
        if self.cpu is not None:
            self.cpu.run_seconds(
                ("vn", packet.src),
                self.spec.per_packet_stack_s,
                self._uplink_send,
                packet,
            )
        else:
            self._uplink_send(packet)

    def _uplink_send(self, packet: Packet) -> None:
        accepted = self.uplink.send(
            packet.size_bytes, self._reach_core, packet
        )
        if not accepted:
            self.emulation.monitor.uplink_drop()

    def _reach_core(self, packet: Packet) -> None:
        if self.core.ingress_link is not None:
            accepted = self.core.ingress_link.send(
                packet.size_bytes, self.core.ingress_packet, packet
            )
            if not accepted:
                self.emulation.monitor.uplink_drop()
        else:
            self.core.ingress_packet(packet)

    def receive_from_switch(self, packet: Packet) -> None:
        """A packet exiting the emulated network arrives on our wire."""
        self.downlink.send(packet.size_bytes, self._to_stack, packet)

    def _to_stack(self, packet: Packet) -> None:
        if self.cpu is not None:
            self.cpu.run_seconds(
                ("vn", packet.dst),
                self.spec.per_packet_stack_s,
                self.emulation.deliver_to_vn,
                packet,
            )
        else:
            self.emulation.deliver_to_vn(packet)

    def __repr__(self) -> str:
        return f"<EdgeHost {self.index} vns={len(self.vns)} core={self.core.index}>"


class PipeSpec(NamedTuple):
    """A pipe as its link stood at bind time: what :class:`PipeTable`
    builds, and what :meth:`PipeTable.peek` shows of a pipe not built
    yet. Field names are :class:`Pipe`'s, so readers of logical
    structure take either."""

    id: int
    link_id: int
    src_node: int
    dst_node: int
    bandwidth_bps: float
    latency_s: float
    loss_rate: float
    queue_limit: int
    up: bool
    owner: int


def make_qdisc(link):
    """Per-link queueing discipline: the shared FIFO drop-tail by
    default; ``qdisc="red"`` in the link attrs selects RED, with
    optional red_min_th/red_max_th/red_max_p overrides
    (dummynet-style)."""
    if link.attrs.get("qdisc") == "red":
        return REDQueue(
            min_th_frac=link.attrs.get("red_min_th", 0.25),
            max_th_frac=link.attrs.get("red_max_th", 0.75),
            max_p=link.attrs.get("red_max_p", 0.1),
        )
    return DROP_TAIL


class PipeTable:
    """Two pipes per topology link, each built the first time something
    asks for it.

    Pipe ids are a pure function of the link: ``2 * rank + direction``,
    where ``rank`` is the link's position in id order and direction 0
    runs ``link.a -> link.b``. The table is a flat list that holds
    ``None`` for a pipe not built yet, so an idle pipe costs a list
    slot, not a :class:`Pipe` and its delay line (a pipe is a small
    kernel struct, paper §2.2; end-to-end distillation, §4.3, asks for
    a great many of them).

    A pipe is built from its link's state when the table was made, at
    bind time (:meth:`initial`), so it equals the pipe an eager build
    would have made then. Edits made behind the emulation's back —
    ``DynamicRouting.node_failed`` flips ``link.up``, the reassigner
    rewrites the live owner maps — do not leak into it; the
    emulation's own mutators build the pipes they change first.
    """

    def __init__(self, links, link_to_core: Dict[int, int]):
        links = sorted(links, key=attrgetter("id"))
        self._links = links
        self._rank = {link.id: rank for rank, link in enumerate(links)}
        #: Bind-time state by rank, one column per PipeSpec field from
        #: ``bandwidth_bps`` on.
        self._columns = [
            list(map(attrgetter(name), links))
            for name in ("bandwidth_bps", "latency_s", "loss_rate", "queue_limit", "up")
        ]
        self._columns.append([link_to_core[link.id] for link in links])
        self._pipes: List[Optional[Pipe]] = [None] * (2 * len(links))
        #: The ``pipe.enqueue_s`` histogram, armed on every pipe built
        #: when the run is observed.
        self.timer = None

    def __len__(self) -> int:
        """The logical pipe count: two per link, built or not."""
        return len(self._pipes)

    def pipe_id(self, link_id: int, direction: int) -> int:
        return 2 * self._rank[link_id] + direction

    def pipe(self, link_id: int, direction: int) -> Pipe:
        """The pipe of ``link_id`` in ``direction`` (0 runs a->b),
        built on first use."""
        return self.by_id(self.pipe_id(link_id, direction))

    def by_id(self, pipe_id: int) -> Pipe:
        """The pipe with ``pipe_id``, built on first use."""
        if pipe_id < 0:
            raise IndexError(f"no pipe {pipe_id}")
        pipe = self._pipes[pipe_id]
        if pipe is None:
            spec = self.initial(pipe_id)
            pipe = Pipe(
                pipe_id,
                spec.bandwidth_bps,
                spec.latency_s,
                spec.loss_rate,
                spec.queue_limit,
                qdisc=make_qdisc(self._links[pipe_id >> 1]),
                link_id=spec.link_id,
                src_node=spec.src_node,
                dst_node=spec.dst_node,
            )
            pipe.up = spec.up
            pipe.owner = spec.owner
            pipe._timer = self.timer
            self._pipes[pipe_id] = pipe
        return pipe

    def initial(self, pipe_id: int) -> PipeSpec:
        """``pipe_id`` as its link stood at bind time."""
        rank, direction = divmod(pipe_id, 2)
        link = self._links[rank]
        src, dst = (link.a, link.b) if direction == 0 else (link.b, link.a)
        return PipeSpec(
            pipe_id, link.id, src, dst, *[column[rank] for column in self._columns]
        )

    def peek(self, pipe_id: int) -> Union[Pipe, PipeSpec]:
        """The pipe if built, else its :meth:`initial` spec: for reads
        that must not build one."""
        pipe = self._pipes[pipe_id]
        return pipe if pipe is not None else self.initial(pipe_id)

    def built(self) -> List[Pipe]:
        """Every pipe built so far, in id order."""
        return [pipe for pipe in self._pipes if pipe is not None]

    def owners(self) -> Iterator[int]:
        """Each logical pipe's owning core, in id order. Builds
        nothing and makes no spec: over Fig. 5's 159,600-pipe table it
        takes ~0.02 s, where reading ``owner`` off :meth:`logical`
        takes ~0.23 s (2-vCPU x86-64 Xeon)."""
        bind_owner = self._columns[-1]
        return (
            bind_owner[pipe_id >> 1] if pipe is None else pipe.owner
            for pipe_id, pipe in enumerate(self._pipes)
        )

    def logical(self) -> Iterator[Union[Pipe, PipeSpec]]:
        """Every logical pipe in id order, as :meth:`peek` shows it.
        Builds nothing."""
        return map(self.peek, range(len(self._pipes)))


class Emulation:
    """A running ModelNet instance over a distilled topology.

    Placement is decided before the Run phase: ``assignment`` (pipes
    to cores), ``binding`` (VNs to hosts, hosts to cores) and ``seed``
    come from the caller — usually
    :class:`~repro.core.phases.ExperimentPipeline` — and are used as
    given."""

    def __init__(
        self,
        sim: Simulator,
        topology: Topology,
        config: EmulationConfig,
        *,
        assignment: Assignment,
        binding: Binding,
        seed: int,
        routing=None,
        registry: Optional[MetricsRegistry] = None,
    ):
        self.sim = sim
        self.topology = topology
        self.config = config
        self.seed = seed
        self.rng = RngRegistry(seed)

        # --- event domains -------------------------------------------------
        # A partitioned simulator exposes ``domains``; the classic
        # Simulator is itself the single domain. Components are
        # constructed against *their* domain, so their schedule/post
        # calls land on the right heap without any indirection.
        domains = getattr(sim, "domains", None)
        self.domains = list(domains) if domains is not None else [sim]
        self.num_domains = len(self.domains)
        self.router = getattr(sim, "router", None)
        if self.num_domains > 1 and not self.config.model_physical:
            raise ValueError(
                "partitioned execution requires model_physical=True "
                "(exact-mode tunnels have zero latency, hence zero "
                "lookahead)"
            )
        #: Per-domain pipe-loss streams. Domain 0 keeps the historical
        #: "pipe-loss" stream so single-domain digests are unchanged;
        #: extra domains draw from independently derived streams so
        #: each domain's draw sequence is self-contained (the
        #: determinism requirement for partitioned and multiprocess
        #: runs, where dispatch interleaving across domains varies).
        self.loss_rng = self.rng.stream("pipe-loss")
        self._loss_rngs = [self.loss_rng] + [
            self.rng.stream(f"pipe-loss-d{d}")
            for d in range(1, self.num_domains)
        ]
        self.monitor = EmulationMonitor()
        #: Observability registry; the shared null registry (every
        #: operation a no-op, no hot-path timers installed) unless the
        #: caller opts in with a live MetricsRegistry.
        self.obs: MetricsRegistry = registry if registry is not None else NULL_REGISTRY
        self._route_timer = None

        # --- assignment and pipes (one per link direction) ------------------
        self.assignment = assignment
        num_cores = assignment.num_cores
        self.pipes = PipeTable(topology.links.values(), assignment.link_to_core)

        # --- core -> domain map --------------------------------------------
        if self.num_domains > num_cores:
            raise ValueError(
                f"{self.num_domains} event domains but only "
                f"{num_cores} cores; domains partition cores"
            )
        self._domain_of_core: List[int] = [
            index % self.num_domains for index in range(num_cores)
        ]
        if self.router is not None:
            self.router.bind(self)

        # --- routing ---------------------------------------------------------
        # Default: the "perfect routing protocol" (instant shortest
        # paths). Pass an emulated protocol (e.g.
        # core.routing_emulation.DistanceVectorRouting) to capture
        # convergence dynamics instead.
        if routing is None:
            routing = DynamicRouting(
                CachedRouting(topology, self.config.routing_weight)
            )
        self.routing = routing
        # Route memo for the core forwarding path, keyed (src, dst)
        # with a generation stamp: invalidate() bumps the generation
        # (O(1)) instead of clearing the table, and stale entries are
        # simply overwritten on their next lookup.
        self._route_gen = 0
        self._route_pipes: Dict[
            Tuple[int, int], Tuple[int, Optional[Tuple[Pipe, ...]]]
        ] = {}
        self.routing.on_change(self._bump_route_generation)

        # --- cores -----------------------------------------------------------
        self.cores: List[CoreNode] = []
        for index in range(num_cores):
            core_sim = self.domains[self._domain_of_core[index]]
            core = CoreNode(
                core_sim,
                index,
                self.config.core_spec,
                self,
                exact=self.config.exact,
                debt_handling=self.config.debt_handling,
                domain_id=self._domain_of_core[index],
            )
            if self.config.model_physical:
                core.ingress_link = PhysicalLink(
                    core_sim,
                    self.config.core_spec.nic_bps,
                    self.config.core_spec.switch_latency_s,
                    self.config.core_spec.switch_queue_slots,
                    name=f"core{index}-in",
                )
                core.egress_link = PhysicalLink(
                    core_sim,
                    self.config.core_spec.nic_bps,
                    self.config.core_spec.switch_latency_s,
                    self.config.core_spec.switch_queue_slots,
                    name=f"core{index}-out",
                )
            self.cores.append(core)

        # --- binding, hosts, VNs ----------------------------------------------
        self.binding = binding
        #: A host lives in the domain of the core it attaches to, so
        #: its uplink/downlink wires and its VNs' stacks all share one
        #: clock with that core's ingress path.
        self._domain_of_host: List[int] = [
            self._domain_of_core[binding.host_to_core[host_index]]
            for host_index in range(binding.num_hosts)
        ]
        self.hosts: List[EdgeHost] = [
            EdgeHost(
                self.domains[self._domain_of_host[host_index]],
                host_index,
                self.config.edge_spec,
                self.cores[binding.host_to_core[host_index]],
                self,
                self.config.model_edge_cpu,
            )
            for host_index in range(binding.num_hosts)
        ]

        self.vns: List[VirtualNode] = []
        self._node_of_vn: List[int] = list(binding.vn_nodes)
        self._vn_of_node: Dict[int, int] = {}
        for vn_id, node_id in enumerate(binding.vn_nodes):
            if node_id not in topology.nodes:
                raise TopologyError(f"binding references unknown node {node_id}")
            host = self.hosts[binding.vn_to_host[vn_id]]
            stack = NetStack(host.sim, vn_id, tcp_params=self.config.tcp_params)
            vn = VirtualNode(vn_id, node_id, host, stack)
            if self.config.model_physical:
                stack.attach(host.send_from_vn)
            else:
                stack.attach(self._direct_transmit)
            host.vns.append(vn)
            self.vns.append(vn)
            self._vn_of_node[node_id] = vn_id
            if host.cpu is not None:
                host.cpu.register(("vn", vn_id))

        if self.obs.enabled:
            self._install_timing_hooks()

        #: The sanctioned applier for a declarative fault plan, or
        #: None. Installed via :meth:`install_fault_plan` before the
        #: run starts.
        self.fault_applier = None

        # --- per-pair lookahead -------------------------------------------
        # Derived from the actual cross-domain hop structure (pipe
        # latencies + the channel floor), so the epoch synchronizer
        # can grant windows per destination domain instead of the
        # single global channel floor.
        if self.num_domains > 1 and hasattr(sim, "install_lookahead"):
            sim.install_lookahead(self._derive_lookahead_matrix())

    def install_fault_plan(self, plan):
        """Install a declarative :class:`repro.faults.FaultPlan`.

        Validates the plan against the topology, re-derives the
        lookahead matrix from each pipe's *minimum* latency over the
        plan's entire timeline (a matrix derived from bind-time
        latencies would break causality the moment the timeline
        lowers a cross-domain latency), and arms the single
        sanctioned :class:`repro.core.faults.FaultApplier`. A plan
        that takes a cross-domain latency below the lookahead floor
        is refused with :class:`repro.faults.FaultPlanError` — a
        typed error at install time, not a causality violation
        mid-run. Must be called before the run starts.
        """
        from repro.core.faults import FaultApplier
        from repro.faults import FaultPlanError

        if self.fault_applier is not None:
            raise FaultPlanError("a fault plan is already installed")
        plan.validate(self.topology)
        if self.num_domains > 1 and hasattr(self.sim, "install_lookahead"):
            minimums = plan.min_latency(self.topology)
            if minimums:
                self.sim.install_lookahead(
                    self._derive_lookahead_matrix(latency_min=minimums)
                )
        self.fault_applier = FaultApplier(self, plan).install()
        return self.fault_applier

    def _derive_lookahead_matrix(self, latency_min=None):
        """The per-domain-pair lookahead matrix for this topology,
        assignment, and binding.

        Every cross-domain message the runtime can emit is one of four
        shapes, and each contributes a lower bound on how far ahead of
        the sender's clock it can be timestamped (``floor`` is the
        channel's minimum cross-core latency):

        R1 — a descriptor admitted to pipe P whose successor pipe is
            foreign: announced at admission for P's *exit*, so it is
            at least ``P.latency_s + floor`` ahead.
        R2 — a descriptor exiting its last pipe P to a foreign host:
            same bound, ``P.latency_s + floor``.
        R3 — a packet admitted at its entry core whose *first* pipe is
            foreign: tunneled immediately, only ``floor`` ahead.
        R4 — co-located VNs whose empty route delivers directly from
            the sender's entry domain to the receiver's host domain:
            ``floor`` ahead.

        The matrix keeps the minimum bound per (src, dst) domain pair;
        pairs with no contributing shape stay unbounded (infinite
        lookahead), and :class:`LookaheadMatrix` min-plus-closes the
        result so relayed deliveries are covered too. Entry domain
        and host domain coincide by construction (a host lives in its
        core's domain), which is what lets R3/R4 key off the host map.

        ``latency_min`` (link id -> seconds) overrides a pipe's
        bind-time latency with the minimum its fault timeline can
        reach, so the granted windows stay safe for the whole run; a
        timeline minimum below the floor on a pipe that contributes a
        cross-domain bound is refused with a typed
        :class:`~repro.faults.FaultPlanError`.
        """
        from repro.engine.sync import LookaheadMatrix
        from repro.hardware.calibration import min_cross_core_latency

        floor = min_cross_core_latency(self.config.core_spec)
        # Tick-aligned send times let the synchronizer round grants up
        # to tick boundaries — valid only when every send happens in a
        # tick-collected wake, which debt handling and exact mode break.
        tick_s = (
            0.0
            if (self.config.debt_handling or self.config.exact)
            else self.config.tick_s
        )
        pairs: Dict[Tuple[int, int], float] = {}

        def offer(src: int, dst: int, bound: float) -> None:
            if src == dst:
                return
            prev = pairs.get((src, dst))
            if prev is None or bound < prev:
                pairs[(src, dst)] = bound

        logical = list(self.pipes.logical())
        domain_of_pipe = [self._domain_of_core[pipe.owner] for pipe in logical]
        pipes_from: Dict[int, List[PipeSpec]] = {}
        for pipe in logical:
            pipes_from.setdefault(pipe.src_node, []).append(pipe)
        host_domains_of_node: Dict[int, set] = {}
        for vn_id, node_id in enumerate(self._node_of_vn):
            host_domains_of_node.setdefault(node_id, set()).add(
                self.domain_of_vn(vn_id)
            )

        overrides = latency_min or {}

        def checked(pipe: PipeSpec, src: int, dst: int) -> float:
            lat = pipe.latency_s
            timeline_min = overrides.get(pipe.link_id)
            if timeline_min is not None and timeline_min < lat:
                lat = timeline_min
                if src != dst and lat < floor:
                    from repro.faults import FaultPlanError

                    raise FaultPlanError(
                        f"fault timeline lowers link {pipe.link_id} latency "
                        f"to {lat:.6g}s, below the cross-domain lookahead "
                        f"floor {floor:.6g}s (domains {src}->{dst}); the "
                        f"epoch synchronizer could not grant safe windows"
                    )
            return lat

        for pipe in logical:
            src_domain = domain_of_pipe[pipe.id]
            for next_pipe in pipes_from.get(pipe.dst_node, ()):  # R1
                dst_domain = domain_of_pipe[next_pipe.id]
                offer(
                    src_domain,
                    dst_domain,
                    checked(pipe, src_domain, dst_domain) + floor,
                )
            for host_domain in host_domains_of_node.get(pipe.dst_node, ()):
                offer(  # R2
                    src_domain,
                    host_domain,
                    checked(pipe, src_domain, host_domain) + floor,
                )
        for vn_id, node_id in enumerate(self._node_of_vn):
            entry_domain = self.domain_of_vn(vn_id)
            for first_pipe in pipes_from.get(node_id, ()):  # R3
                offer(entry_domain, domain_of_pipe[first_pipe.id], floor)
            for host_domain in host_domains_of_node.get(node_id, ()):
                offer(entry_domain, host_domain, floor)  # R4

        return LookaheadMatrix(
            self.num_domains, pairs, floor=floor, tick_s=tick_s
        )

    def _install_timing_hooks(self) -> None:
        """Arm the hot-path wall-clock timers (live registry only):
        per-arrival pipe enqueue, per-wakeup scheduler collect, and
        route-cache misses."""
        self._route_timer = self.obs.histogram("route.lookup_s")
        self.pipes.timer = self.obs.histogram("pipe.enqueue_s")
        for core in self.cores:
            core.scheduler.collect_timer = self.obs.histogram(
                "sched.collect_s", core=core.index
            )
            core.scheduler.batch_hist = self.obs.histogram(
                "sched.batch_size", core=core.index
            )

    # ------------------------------------------------------------------
    # Fabric interface
    # ------------------------------------------------------------------

    def _direct_transmit(self, packet: Packet) -> None:
        """Reference mode: packets enter the entry core instantly.

        Reference mode cannot be partitioned (build() raises when
        ``num_domains > 1`` without ``model_physical``), so this core
        is always on our own — the only — event domain.
        """
        core = self.cores[self.binding.core_of_vn(packet.src)]
        core.ingress_packet(packet)  # repro: allow-unrouted-peer-call

    def _bump_route_generation(self) -> None:
        """Invalidate every memoized route without touching the table."""
        self._route_gen += 1

    def lookup_pipes(self, src_vn: int, dst_vn: int) -> Optional[Tuple[Pipe, ...]]:
        """The core's route lookup: VN pair to ordered pipe list."""
        key = (src_vn, dst_vn)
        generation = self._route_gen
        entry = self._route_pipes.get(key)
        if entry is not None and entry[0] == generation:
            return entry[1]
        timer = self._route_timer
        t0 = perf_counter() if timer is not None else 0.0  # repro: allow-wallclock
        route = self.routing.route(
            self._node_of_vn[src_vn], self._node_of_vn[dst_vn]
        )
        if route is None:
            pipes = None
        else:
            pipes = tuple(self._pipe_for_hop(hop) for hop in route)
        self._route_pipes[key] = (generation, pipes)
        if timer is not None:
            timer.observe(perf_counter() - t0)  # repro: allow-wallclock
        return pipes

    def _pipe_for_hop(self, hop) -> Pipe:
        direction = 0 if hop.src == hop.link.a else 1
        return self.pipes.pipe(hop.link.id, direction)

    def host_of_vn(self, vn_id: int) -> EdgeHost:
        return self.hosts[self.binding.vn_to_host[vn_id]]

    def domain_of_vn(self, vn_id: int) -> int:
        """Event domain a VN's stack is clocked by (its host's)."""
        return self._domain_of_host[self.binding.vn_to_host[vn_id]]

    def sim_of_vn(self, vn_id: int):
        """The domain kernel to schedule a VN's app-level events on.

        In partitioned mode, app callbacks that touch a VN's stack
        *must* run on this domain — scheduling them on another
        domain's clock would dispatch them at a skewed time (or, under
        the multiprocess backend, in a different process entirely).
        """
        return self.domains[self.domain_of_vn(vn_id)]

    def deliver_to_vn(self, packet: Packet) -> None:
        self.vns[packet.dst].stack.deliver(packet)

    # ------------------------------------------------------------------
    # Convenience accessors
    # ------------------------------------------------------------------

    def vn(self, vn_id: int) -> VirtualNode:
        return self.vns[vn_id]

    @property
    def num_vns(self) -> int:
        return len(self.vns)

    def pipes_of_link(self, link_id: int) -> Tuple[Pipe, Pipe]:
        """(a->b, b->a) pipes of a topology link, built on first use."""
        return self.pipes.pipe(link_id, 0), self.pipes.pipe(link_id, 1)

    def set_link_params(self, link_id: int, **params) -> None:
        """Adjust both directions of a link's pipes at runtime.

        A rejected call (an unknown name or a bad value) raises
        :class:`ValueError` before either pipe changes: both pipes
        take the same values, and :meth:`Pipe.set_params` checks them
        all before assigning any."""
        unknown = set(params) - set(Pipe.PARAM_NAMES)
        if unknown:
            raise ValueError(
                f"unknown link parameter(s) {sorted(unknown)}; "
                f"valid knobs: {', '.join(Pipe.PARAM_NAMES)}"
            )
        for pipe in self.pipes_of_link(link_id):
            pipe.set_params(**params)

    def set_link_up(self, link_id: int, up: bool) -> None:
        """Fail or recover a link: pipes stop accepting packets and
        routes are recomputed instantaneously (the "perfect routing
        protocol" assumption)."""
        link = self.topology.links[link_id]
        for pipe in self.pipes_of_link(link_id):
            pipe.up = up
            if not up:
                pipe.flush()
        if up:
            self.routing.link_recovered(link)
        else:
            self.routing.link_failed(link)

    def virtual_drops(self) -> int:
        return sum(
            pipe.drops_overflow + pipe.drops_random + pipe.drops_down
            for pipe in self.pipes.built()
        )

    def accuracy_report(self):
        return self.monitor.report(virtual_drops=self.virtual_drops())

    def run_report(self, name: str = "", wall_time_s: float = 0.0) -> RunReport:
        """Collect every subsystem's statistics into a
        :class:`~repro.obs.RunReport` manifest."""
        return build_report(self, name=name, wall_time_s=wall_time_s)

    def __repr__(self) -> str:
        return (
            f"<Emulation vns={self.num_vns} pipes={len(self.pipes)} "
            f"cores={len(self.cores)} hosts={len(self.hosts)}>"
        )

