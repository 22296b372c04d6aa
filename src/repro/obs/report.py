"""Run manifests: collect every subsystem's statistics, emit one report.

:func:`collect_metrics` is the pull pass: it walks a live
:class:`~repro.core.emulator.Emulation` and copies every ad-hoc
statistic — scheduler wakeups/hops/heap depth, the three virtual-drop
classes and queue occupancy per pipe, core CPU/NIC utilization, edge
uplink drops, TCP retransmission counters, route-search work, accuracy
error — into a
:class:`~repro.obs.metrics.MetricsRegistry` under canonical names.

:class:`RunReport` is the manifest those metrics ship in: the run's
config, seed, topology summary, wall and virtual time, and the full
metric snapshot, serializable to JSON (lossless round-trip) and CSV
(one metric per row, histograms flattened).
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.obs.metrics import MetricsRegistry


# ----------------------------------------------------------------------
# Collection
# ----------------------------------------------------------------------

def _mean_link_utilization(link, elapsed: float) -> float:
    """Mean duty cycle over the whole run: bits carried / bits possible.

    ``PhysicalLink.utilization(since, now)`` is an instantaneous proxy
    built on ``_free_at`` — over a full run it reads ~1.0 whenever the
    wire carried anything recently, so it cannot serve as a run average.
    """
    if elapsed <= 0.0:
        return 0.0
    return min(1.0, link.bytes_sent * 8.0 / (link.rate_bps * elapsed))


def collect_metrics(emulation, registry: MetricsRegistry) -> MetricsRegistry:
    """Read every statistic a run accumulates into ``registry``.

    Safe to call repeatedly (gauges are overwritten; counters are set
    to the current cumulative totals).
    """
    sim = emulation.sim
    registry.gauge("sim.virtual_time_s").set(sim.now)
    registry.gauge("sim.events_dispatched").set(sim.events_dispatched)
    registry.gauge("sim.events_pending").set(sim.pending)

    # -- partitioned engine (backend, domains, epoch barrier) -----------
    partitioned = emulation.num_domains > 1
    registry.gauge("engine.num_domains").set(emulation.num_domains)
    if partitioned:
        registry.gauge("engine.epochs").set(getattr(sim, "epochs", 0))
        # ``lookahead`` is the effective (minimum finite) bound of the
        # per-pair matrix — the scalar consumers key dashboards on —
        # and the matrix itself is broken out per domain pair so a
        # slow pair (one near the channel floor) is attributable.
        registry.gauge("engine.lookahead_s").set(getattr(sim, "lookahead", 0.0))
        matrix = getattr(sim, "matrix", None)
        if matrix is not None:
            registry.gauge("engine.lookahead_widest_s").set(matrix.widest)
            for src, dst, bound in matrix.items():
                registry.gauge(
                    "engine.lookahead_pair_s", src=src, dst=dst
                ).set(bound)
        if emulation.router is not None:
            registry.gauge("engine.messages_routed").set(
                emulation.router.messages_routed
            )
        for domain in emulation.domains:
            registry.gauge(
                "sim.events_dispatched", domain=domain.domain_id
            ).set(domain.events_dispatched)

    # -- scheduler + cores (Fig. 4 / Table 1 substrate) -----------------
    elapsed = sim.now
    for core in emulation.cores:
        label = {"core": core.index}
        if partitioned:
            label["domain"] = core.domain_id
        sched = core.scheduler
        registry.gauge("sched.wakeups", **label).set(sched.wakeups)
        registry.gauge("sched.hops_serviced", **label).set(sched.hops_serviced)
        registry.gauge("sched.heap_depth", **label).set(sched.pending_pipes)
        registry.gauge("core.cpu_busy_s", **label).set(core.cpu_busy_s)
        registry.gauge("core.utilization", **label).set(core.utilization(elapsed))
        registry.gauge("core.packets_processed", **label).set(core.packets_processed)
        registry.gauge("core.hops_processed", **label).set(core.hops_processed)
        registry.gauge("core.tick_overruns", **label).set(core.tick_overruns)
        registry.gauge("core.tunnels_sent", **label).set(core.tunnels_sent)
        registry.gauge("core.tunnels_received", **label).set(core.tunnels_received)
        registry.gauge("core.ring_occupancy", **label).set(len(core._ring))
        if core.ingress_link is not None:
            registry.gauge("core.nic_in_bytes", **label).set(
                core.ingress_link.bytes_sent
            )
            registry.gauge("core.nic_in_utilization", **label).set(
                _mean_link_utilization(core.ingress_link, elapsed)
            )
        if core.egress_link is not None:
            registry.gauge("core.nic_out_bytes", **label).set(
                core.egress_link.bytes_sent
            )
            registry.gauge("core.nic_out_utilization", **label).set(
                _mean_link_utilization(core.egress_link, elapsed)
            )

    # -- pipes: drop taxonomy and occupancy (Figs. 8-10 inputs) ---------
    arrivals = departures = batch_departures = overflow = random_ = down = 0
    bytes_accepted = bytes_through = in_flight = backlog = peak = 0
    for pipe in emulation.pipes.values():
        arrivals += pipe.arrivals
        departures += pipe.departures
        batch_departures += pipe.batch_departures
        overflow += pipe.drops_overflow
        random_ += pipe.drops_random
        down += pipe.drops_down
        bytes_accepted += pipe.bytes_accepted
        bytes_through += pipe.bytes_through
        in_flight += pipe.in_flight
        backlog += pipe.backlog_pkts
        if pipe.peak_backlog > peak:
            peak = pipe.peak_backlog
    registry.gauge("pipe.count").set(len(emulation.pipes))
    registry.gauge("pipe.arrivals").set(arrivals)
    registry.gauge("pipe.departures").set(departures)
    registry.gauge("pipe.batch_departures").set(batch_departures)
    registry.gauge("pipe.drops_overflow").set(overflow)
    registry.gauge("pipe.drops_random").set(random_)
    registry.gauge("pipe.drops_down").set(down)
    registry.gauge("pipe.bytes_accepted").set(bytes_accepted)
    registry.gauge("pipe.bytes_through").set(bytes_through)
    registry.gauge("pipe.in_flight").set(in_flight)
    registry.gauge("pipe.backlog_pkts").set(backlog)
    registry.gauge("pipe.peak_backlog").set(peak)

    # -- monitor: accuracy + physical drops -----------------------------
    emulation.monitor.export(registry, virtual_drops=emulation.virtual_drops())

    # -- edge hosts ------------------------------------------------------
    uplink_bytes = downlink_bytes = 0
    cpu_busy = 0.0
    context_switches = 0
    for host in emulation.hosts:
        uplink_bytes += host.uplink.bytes_sent
        downlink_bytes += host.downlink.bytes_sent
        if host.cpu is not None:
            stats = host.cpu.stats()
            cpu_busy += stats["busy_s"]
            context_switches += stats["context_switches"]
    registry.gauge("edge.hosts").set(len(emulation.hosts))
    registry.gauge("edge.uplink_bytes").set(uplink_bytes)
    registry.gauge("edge.downlink_bytes").set(downlink_bytes)
    registry.gauge("edge.uplink_drops").set(
        emulation.monitor.physical_drops_uplink
    )
    if any(host.cpu is not None for host in emulation.hosts):
        registry.gauge("edge.cpu_busy_s").set(cpu_busy)
        registry.gauge("edge.context_switches").set(context_switches)

    # -- TCP (edge stacks) ----------------------------------------------
    tcp_totals: Dict[str, int] = {}
    for vn in emulation.vns:
        for key, value in vn.stack.tcp_stats().items():
            tcp_totals[key] = tcp_totals.get(key, 0) + value
    for key, value in tcp_totals.items():
        registry.gauge(f"tcp.{key}").set(value)

    # -- routing: demand-cache search work ------------------------------
    for key, value in emulation.routing.stats().items():
        registry.gauge(f"routing.{key}").set(value)

    # -- fault timeline (declarative plans only) ------------------------
    applier = getattr(emulation, "fault_applier", None)
    if applier is not None:
        registry.gauge("faults.injected").set(applier.injected)
        registry.gauge("faults.recovered").set(applier.recovered)
        registry.gauge("faults.perturbations").set(
            applier.perturbations_applied
        )
        registry.gauge("faults.applied").set(applier.applied)
        registry.gauge("faults.planned").set(len(applier.plan.events))
        for link_id in applier.touched_links():
            link = emulation.topology.links.get(link_id)
            if link is not None:
                registry.gauge(
                    "topology.link_up", link=link_id
                ).set(1 if link.up else 0)

    return registry


# ----------------------------------------------------------------------
# The manifest
# ----------------------------------------------------------------------

def _jsonable(value: Any) -> Any:
    """Best-effort conversion of config values to JSON-safe data."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {k: _jsonable(v) for k, v in dataclasses.asdict(value).items()}
    if hasattr(value, "__slots__") and not isinstance(
        value, (str, int, float, bool, type(None))
    ):
        return {
            slot: _jsonable(getattr(value, slot))
            for slot in value.__slots__
            if hasattr(value, slot)
        }
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


@dataclass
class RunReport:
    """Everything needed to compare one run against another."""

    name: str = ""
    seed: int = 0
    config: Dict[str, Any] = field(default_factory=dict)
    topology: Dict[str, Any] = field(default_factory=dict)
    virtual_time_s: float = 0.0
    wall_time_s: float = 0.0
    metrics: Dict[str, Any] = field(default_factory=dict)
    #: Sweep coordinates: which suite/run/axis point produced this
    #: report. Filled by the :mod:`repro.exp` runner; the aggregation
    #: layer keys tidy datasets on these instead of parsing names.
    labels: Dict[str, Any] = field(default_factory=dict)
    #: Applied fault-timeline occurrences (``{"time_s", "kind",
    #: "links"}`` dicts from the sanctioned applier), empty when the
    #: run carried no :class:`repro.faults.FaultPlan`. Deterministic:
    #: same plan + seed ⇒ same list on every backend.
    fault_events: List[Dict[str, Any]] = field(default_factory=list)
    #: Wall-clock stamp. Left None while the report lives in memory so
    #: same-seed runs produce identical manifests (the determinism
    #: sanitizer diffs them); :meth:`save` stamps it on first write.
    created_at: Optional[float] = None

    # -- access ---------------------------------------------------------

    def metric(self, name: str, default: Any = None) -> Any:
        """A metric by rendered name (``"pipe.arrivals"``,
        ``"sched.wakeups{core=0}"``)."""
        return self.metrics.get(name, default)

    def metric_sum(self, prefix: str) -> float:
        """Sum of all scalar metrics whose name starts with
        ``prefix`` up to a label block (aggregates per-core series)."""
        total = 0.0
        for key, value in self.metrics.items():
            base = key.split("{", 1)[0]
            if base == prefix and isinstance(value, (int, float)):
                total += value
        return total

    # -- serialization ---------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "seed": self.seed,
            "config": self.config,
            "topology": self.topology,
            "virtual_time_s": self.virtual_time_s,
            "wall_time_s": self.wall_time_s,
            "metrics": self.metrics,
            "labels": self.labels,
            "fault_events": self.fault_events,
            "created_at": self.created_at,
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, raw: Dict[str, Any]) -> "RunReport":
        return cls(
            name=raw.get("name", ""),
            seed=raw.get("seed", 0),
            config=raw.get("config", {}),
            topology=raw.get("topology", {}),
            virtual_time_s=raw.get("virtual_time_s", 0.0),
            wall_time_s=raw.get("wall_time_s", 0.0),
            metrics=raw.get("metrics", {}),
            labels=raw.get("labels", {}),
            fault_events=raw.get("fault_events", []),
            created_at=raw.get("created_at"),
        )

    @classmethod
    def from_json(cls, text: str) -> "RunReport":
        return cls.from_dict(json.loads(text))

    def save(self, path: str) -> None:
        # The serialization boundary is the one place a manifest may
        # read the wall clock: a stamp taken any earlier would make
        # two same-seed runs produce different in-memory reports.
        if self.created_at is None:
            self.created_at = time.time()  # repro: allow-wallclock
        with open(path, "w") as handle:
            handle.write(self.to_json() + "\n")

    @classmethod
    def load(cls, path: str) -> "RunReport":
        with open(path) as handle:
            return cls.from_json(handle.read())

    def to_csv(self) -> str:
        """``metric,value`` rows; histogram summaries are flattened to
        ``name.count``, ``name.mean``, ... rows."""
        out = io.StringIO()
        writer = csv.writer(out)
        writer.writerow(["metric", "value"])
        for key in sorted(self.metrics):
            value = self.metrics[key]
            if isinstance(value, dict):
                for sub in sorted(value):
                    writer.writerow([f"{key}.{sub}", value[sub]])
            else:
                writer.writerow([key, value])
        return out.getvalue()

    def save_csv(self, path: str) -> None:
        with open(path, "w") as handle:
            handle.write(self.to_csv())

    def summary(self) -> str:
        """A short human-readable digest."""
        delivered = self.metric("accuracy.packets_delivered", 0)
        entered = self.metric("accuracy.packets_entered", 0)
        vdrops = self.metric("accuracy.virtual_drops", 0)
        pdrops = self.metric("accuracy.physical_drops", 0)
        mean_err = self.metric("accuracy.mean_error_s", 0.0)
        return (
            f"RunReport({self.name or 'unnamed'}): "
            f"vt={self.virtual_time_s:g}s wall={self.wall_time_s:.2f}s "
            f"delivered={delivered}/{entered} "
            f"drops(virtual/physical)={vdrops}/{pdrops} "
            f"mean_err={mean_err * 1e6:.1f}us"
        )

    def __str__(self) -> str:
        return self.summary()


def build_report(
    emulation,
    registry: Optional[MetricsRegistry] = None,
    name: str = "",
    wall_time_s: float = 0.0,
    created_at: Optional[float] = None,
) -> RunReport:
    """Collect ``emulation``'s statistics and wrap them in a
    :class:`RunReport`.

    ``registry`` defaults to the emulation's own registry when it is a
    live one, else a fresh :class:`MetricsRegistry` — so reports are
    complete even for runs that disabled hot-path observability.
    """
    if registry is None:
        registry = emulation.obs if emulation.obs.enabled else MetricsRegistry()
    collect_metrics(emulation, registry)
    topology = emulation.topology
    return RunReport(
        name=name,
        seed=emulation.seed,
        config=_jsonable(emulation.config),
        topology={
            "name": topology.name,
            "nodes": topology.num_nodes,
            "links": topology.num_links,
            "clients": len(topology.clients()),
            "vns": emulation.num_vns,
            "pipes": len(emulation.pipes),
            "cores": len(emulation.cores),
            "hosts": len(emulation.hosts),
        },
        virtual_time_s=emulation.sim.now,
        wall_time_s=wall_time_s,
        metrics=registry.snapshot(),
        fault_events=(
            list(emulation.fault_applier.events_log)
            if getattr(emulation, "fault_applier", None) is not None
            else []
        ),
        created_at=created_at,
    )
