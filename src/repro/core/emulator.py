"""The Run phase: wiring cores, edge hosts, VN stacks, and routing.

:class:`Emulation` is the public entry point for running traffic
through a distilled topology. It owns:

* two pipes per topology link (one per direction), stamped with
  owners from the Assignment;
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
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.assign import Assignment, greedy_k_clusters, single_core
from repro.core.bind import Binding, bind_vns, bind_vns_locality
from repro.core.kernel import DEFAULT_KERNEL, KERNELS, require_kernel
from repro.core.monitor import EmulationMonitor
from repro.core.node import CoreNode
from repro.core.pipe import Pipe
from repro.core.pod import PipeOwnershipDirectory
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
    """Knobs for one emulation run."""

    num_cores: int = 1
    num_hosts: int = 1
    tick_s: float = 1e-4
    debt_handling: bool = False
    payload_caching: bool = True
    model_physical: bool = True
    model_edge_cpu: bool = False
    binding_strategy: str = "contiguous"
    routing_weight: str = "latency"
    core_spec: CoreSpec = field(default_factory=lambda: DEFAULT_CORE_SPEC)
    edge_spec: EdgeHostSpec = field(default_factory=lambda: DEFAULT_EDGE_SPEC)
    tcp_params: Optional[TcpParams] = None
    seed: int = 0
    #: Execution backend: ``"serial"`` runs every event domain in this
    #: process under the epoch barrier; ``"multiprocess"`` runs one
    #: worker process per domain group (see repro.engine.parallel).
    backend: str = "serial"
    #: Number of event domains. 0 means "pick the backend default":
    #: 1 for serial (the classic single-kernel engine, byte-identical
    #: to the pre-partitioning code path) and ``num_cores`` for
    #: multiprocess.
    num_domains: int = 0
    #: Worker processes for the multiprocess backend. 0 means one per
    #: domain. Digests are worker-count invariant by construction.
    workers: int = 0
    #: Pipe delay-line kernel (see :mod:`repro.core.kernel`):
    #: ``"scalar"`` reference or ``"batched"`` columnar (default).
    #: Both dispatch a digest-identical event stream.
    kernel: str = DEFAULT_KERNEL

    #: Strategies understood by :func:`repro.core.bind.bind_vns`.
    BINDING_STRATEGIES = ("contiguous", "round_robin")
    ROUTING_WEIGHTS = ("latency", "hops", "cost")
    BACKENDS = ("serial", "multiprocess")
    KERNELS = KERNELS

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        """Reject configurations that cannot run. Called on
        construction; call again after mutating fields in place."""
        if self.tick_s < 0:
            raise ValueError(f"tick_s must be >= 0, got {self.tick_s}")
        if self.num_cores < 1:
            raise ValueError(f"num_cores must be >= 1, got {self.num_cores}")
        if self.num_hosts < 1:
            raise ValueError(f"num_hosts must be >= 1, got {self.num_hosts}")
        if self.binding_strategy not in self.BINDING_STRATEGIES:
            raise ValueError(
                f"unknown binding_strategy {self.binding_strategy!r}; "
                f"valid: {', '.join(self.BINDING_STRATEGIES)}"
            )
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
        require_kernel(self.kernel)
        if (self.backend == "multiprocess" or self.num_domains > 1) and (
            not self.model_physical
        ):
            raise ValueError(
                "partitioned execution requires model_physical=True: "
                "exact mode tunnels descriptors with zero latency, so "
                "the epoch synchronizer would have no lookahead"
            )

    def resolved_domains(self) -> int:
        """The actual domain count after applying backend defaults."""
        if self.num_domains > 0:
            return min(self.num_domains, self.num_cores)
        if self.backend == "multiprocess":
            return self.num_cores
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


class Emulation:
    """A running ModelNet instance over a distilled topology."""

    def __init__(
        self,
        sim: Simulator,
        topology: Topology,
        config: Optional[EmulationConfig] = None,
        assignment: Optional[Assignment] = None,
        binding: Optional[Binding] = None,
        routing=None,
        registry: Optional[MetricsRegistry] = None,
    ):
        self.sim = sim
        self.topology = topology
        self.config = config or EmulationConfig()
        self.rng = RngRegistry(self.config.seed)

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

        # --- pipes: one per link direction --------------------------------
        self.pipes: Dict[Tuple[int, int], Pipe] = {}
        pipe_id = 0
        for link in sorted(topology.links.values(), key=lambda l: l.id):
            for direction, (src, dst) in enumerate(
                ((link.a, link.b), (link.b, link.a))
            ):
                pipe = Pipe(
                    pipe_id,
                    link.bandwidth_bps,
                    link.latency_s,
                    link.loss_rate,
                    link.queue_limit,
                    qdisc=self._make_qdisc(link),
                    link_id=link.id,
                    src_node=src,
                    dst_node=dst,
                    kernel=self.config.kernel,
                )
                pipe.up = link.up
                self.pipes[(link.id, direction)] = pipe
                pipe_id += 1

        # --- assignment & POD ----------------------------------------------
        if assignment is None:
            if self.config.num_cores == 1:
                assignment = single_core(topology)
            else:
                assignment = greedy_k_clusters(
                    topology, self.config.num_cores, self.rng.stream("assign")
                )
        if assignment.num_cores != self.config.num_cores:
            self.config.num_cores = assignment.num_cores
        self.assignment = assignment
        self.pod = PipeOwnershipDirectory(assignment)
        self.pod.install(self.pipes.values())
        #: Pipe id -> pipe, for rehydrating tunneled descriptors that
        #: crossed a process boundary (repro.engine.parallel).
        self._pipes_by_id: Dict[int, Pipe] = {
            pipe.id: pipe for pipe in self.pipes.values()
        }

        # --- core -> domain map --------------------------------------------
        if self.num_domains > self.config.num_cores:
            raise ValueError(
                f"{self.num_domains} event domains but only "
                f"{self.config.num_cores} cores; domains partition cores"
            )
        self._domain_of_core: List[int] = [
            index % self.num_domains for index in range(self.config.num_cores)
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
        for index in range(self.config.num_cores):
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
        if binding is None:
            if self.num_domains > 1:
                # Partitioned default: localize each client node's edge
                # host on the core that owns its access link. The
                # host-count default (num_hosts=1) would pile every VN
                # stack, edge wire, and ingress interrupt onto one
                # domain — see bind_vns_locality's docstring.
                binding = bind_vns_locality(topology, self.assignment)
                self.config.num_hosts = binding.num_hosts
            else:
                binding = bind_vns(
                    topology,
                    self.config.num_hosts,
                    self.config.num_cores,
                    self.config.binding_strategy,
                )
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

        domain_of_pipe = {
            pipe.id: self._domain_of_core[pipe.owner]
            for pipe in self.pipes.values()
        }
        pipes_from: Dict[int, List[Pipe]] = {}
        for pipe in self.pipes.values():
            pipes_from.setdefault(pipe.src_node, []).append(pipe)
        host_domains_of_node: Dict[int, set] = {}
        for vn_id, node_id in enumerate(self._node_of_vn):
            host_domains_of_node.setdefault(node_id, set()).add(
                self.domain_of_vn(vn_id)
            )

        overrides = latency_min or {}

        def checked(pipe: Pipe, src: int, dst: int) -> float:
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

        for pipe in self.pipes.values():
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
        enqueue = self.obs.histogram("pipe.enqueue_s")
        for pipe in self.pipes.values():
            pipe._timer = enqueue
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

    @staticmethod
    def _make_qdisc(link):
        """Per-link queueing discipline: FIFO drop-tail by default;
        ``qdisc="red"`` in the link attrs selects RED, with optional
        red_min_th/red_max_th/red_max_p overrides (dummynet-style)."""
        from repro.core.queues import DropTailQueue, REDQueue

        if link.attrs.get("qdisc") == "red":
            return REDQueue(
                min_th_frac=link.attrs.get("red_min_th", 0.25),
                max_th_frac=link.attrs.get("red_max_th", 0.75),
                max_p=link.attrs.get("red_max_p", 0.1),
            )
        return DropTailQueue()

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
        return self.pipes[(hop.link.id, direction)]

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
        """(a->b, b->a) pipes of a topology link."""
        return self.pipes[(link_id, 0)], self.pipes[(link_id, 1)]

    def set_link_params(self, link_id: int, **params) -> None:
        """Adjust both directions of a link's pipes at runtime.

        Unknown parameter names raise :class:`ValueError` before
        either pipe is touched."""
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
            for pipe in self.pipes.values()
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

