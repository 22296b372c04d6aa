"""Run manifests: collect every subsystem's statistics, emit one report.

:meth:`RunStats.gather` is the pull pass and the only code that reads
run statistics out of live objects: it walks a live
:class:`~repro.core.emulator.Emulation` — over all of its event
domains, or over the ones a multiprocess worker owns — and copies
every ad-hoc statistic (scheduler wakeups/hops/heap depth, the three
virtual-drop classes and queue occupancy per pipe, core CPU/NIC
utilization, edge uplink drops, TCP retransmission counters,
route-search work, per-packet error samples) under canonical names.
:meth:`RunStats.merge` combines the parts of a multiprocess run, and
:meth:`RunStats.publish` sets them on a
:class:`~repro.obs.metrics.MetricsRegistry`. :func:`collect_metrics`
is gather-then-publish for an emulation that ran in this process.

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
from typing import Any, Dict, Iterable, List, Optional, Sequence

from repro.core.monitor import error_summary
from repro.obs.metrics import Histogram, MetricsRegistry


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


#: Metrics every process of a run builds identically — the domain
#: count, the epoch count, the lookahead plan, and the fault timeline
#: with the link state it leaves. A merged run takes them from the
#: process owning domain 0.
_SHARED = frozenset({
    "engine.num_domains",
    "engine.epochs",
    "engine.lookahead_s",
    "engine.lookahead_widest_s",
    "engine.lookahead_pair_s",
    "faults.injected",
    "faults.recovered",
    "faults.perturbations",
    "faults.applied",
    "faults.planned",
    "topology.link_up",
})
#: Peaks: a merged run takes the maximum.
_PEAKS = frozenset({"pipe.peak_backlog"})


@dataclass
class RunStats:
    """A run's statistics as read out of one process's live emulation.

    :meth:`gather` is the one code path that reads run statistics out
    of live objects. A serial run gathers over every domain and
    publishes; each multiprocess worker gathers over the domains it
    owns, and the parent publishes the :meth:`merge` of their parts.
    """

    #: Gauges, and the histograms of the hot-path timers.
    metrics: MetricsRegistry = field(default_factory=MetricsRegistry)
    #: The barrier clock: no gathered domain is behind it.
    virtual_time_s: float = 0.0
    #: Per-packet emulation error (actual minus ideal exit time), the
    #: input of every ``accuracy.*_error_s`` summary.
    error_samples: List[float] = field(default_factory=list)
    max_samples: int = 0
    fault_events: List[Dict[str, Any]] = field(default_factory=list)

    def put(self, name: str, value: float, **labels) -> None:
        self.metrics.gauge(name, **labels).set(value)

    @classmethod
    def gather(cls, emulation, domains: Optional[Iterable[int]] = None) -> "RunStats":
        """Read every statistic the run accumulated on ``domains``
        (default: all of them) out of ``emulation``.

        Per-domain objects — kernels, cores, the pipes they own, edge
        hosts and their stacks — count only when their domain is
        gathered, so parts gathered over disjoint domain sets add up
        to the whole run. Process-wide state is read whole: a worker's
        monitor saw only the worker's domains run, its route cache did
        the worker's searches, and its fault applier applied the whole
        timeline.
        """
        stats = cls()
        put = stats.put
        sim = emulation.sim
        owned = set(range(emulation.num_domains) if domains is None else domains)
        kernels = [d for d in emulation.domains if d.domain_id in owned]
        router = emulation.router
        elapsed = stats.virtual_time_s = min(d.now for d in kernels)
        put("sim.events_dispatched", sum(d.events_dispatched for d in kernels))
        put(
            "sim.events_pending",
            sum(d.pending for d in kernels)
            + (router.pending if router is not None else 0),
        )

        # -- partitioned engine (backend, domains, epoch barrier) -------
        partitioned = emulation.num_domains > 1
        put("engine.num_domains", emulation.num_domains)
        if partitioned:
            put("engine.epochs", sim.epochs)
            # ``lookahead`` is the effective (minimum finite) bound of
            # the per-pair matrix — the scalar consumers key dashboards
            # on — and the matrix itself is broken out per domain pair
            # so a slow pair (one near the channel floor) is
            # attributable.
            put("engine.lookahead_s", sim.lookahead)
            matrix = sim.matrix
            put("engine.lookahead_widest_s", matrix.widest)
            for src, dst, bound in matrix.items():
                put("engine.lookahead_pair_s", bound, src=src, dst=dst)
            put("engine.messages_routed", router.messages_routed)
            for kernel in kernels:
                put(
                    "sim.events_dispatched",
                    kernel.events_dispatched,
                    domain=kernel.domain_id,
                )

        # -- scheduler + cores (Fig. 4 / Table 1 substrate) -------------
        cores = [core for core in emulation.cores if core.domain_id in owned]
        for core in cores:
            label = {"core": core.index}
            if partitioned:
                label["domain"] = core.domain_id
            sched = core.scheduler
            put("sched.wakeups", sched.wakeups, **label)
            put("sched.hops_serviced", sched.hops_serviced, **label)
            put("sched.heap_depth", sched.pending_pipes, **label)
            put("core.cpu_busy_s", core.cpu_busy_s, **label)
            put("core.utilization", core.utilization(elapsed), **label)
            put("core.packets_processed", core.packets_processed, **label)
            put("core.hops_processed", core.hops_processed, **label)
            put("core.tick_overruns", core.tick_overruns, **label)
            put("core.tunnels_sent", core.tunnels_sent, **label)
            put("core.tunnels_received", core.tunnels_received, **label)
            put("core.ring_occupancy", len(core._ring), **label)
            if core.ingress_link is not None:
                put("core.nic_in_bytes", core.ingress_link.bytes_sent, **label)
                put(
                    "core.nic_in_utilization",
                    _mean_link_utilization(core.ingress_link, elapsed),
                    **label,
                )
            if core.egress_link is not None:
                put("core.nic_out_bytes", core.egress_link.bytes_sent, **label)
                put(
                    "core.nic_out_utilization",
                    _mean_link_utilization(core.egress_link, elapsed),
                    **label,
                )
            # Hot-path timers, armed only on an observed emulation.
            for hist in (sched.collect_timer, sched.batch_hist):
                if hist is not None:
                    stats.metrics.install(hist)
        for name in ("pipe.enqueue_s", "route.lookup_s"):
            hist = emulation.obs.get(name)
            if hist is not None:
                stats.metrics.install(hist)

        # -- pipes: drop taxonomy and occupancy (Figs. 8-10 inputs) -----
        # Counters live on built pipes only; a pipe not built yet has
        # seen no packet. ``pipe.count`` is the logical count.
        # ``pipe.built`` counts the pipes a packet reached, not every
        # built one: a route lookup builds its whole route in the
        # ingress domain's process, so which other pipes exist depends
        # on the backend.
        arrivals = departures = batch_departures = overflow = random_ = down = 0
        bytes_accepted = bytes_through = in_flight = backlog = peak = 0
        owned_cores = [core.domain_id in owned for core in emulation.cores]
        pipes = [
            pipe for pipe in emulation.pipes.built() if owned_cores[pipe.owner]
        ]
        for pipe in pipes:
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
        put(
            "pipe.count",
            sum(owned_cores[owner] for owner in emulation.pipes.owners()),
        )
        put("pipe.built", sum(pipe.arrivals > 0 for pipe in pipes))
        put("pipe.arrivals", arrivals)
        put("pipe.departures", departures)
        put("pipe.batch_departures", batch_departures)
        put("pipe.drops_overflow", overflow)
        put("pipe.drops_random", random_)
        put("pipe.drops_down", down)
        put("pipe.bytes_accepted", bytes_accepted)
        put("pipe.bytes_through", bytes_through)
        put("pipe.in_flight", in_flight)
        put("pipe.backlog_pkts", backlog)
        put("pipe.peak_backlog", peak)

        # -- monitor: accuracy + physical drops -------------------------
        monitor = emulation.monitor
        put("accuracy.packets_entered", monitor.packets_entered)
        put("accuracy.packets_delivered", monitor.packets_delivered)
        put("accuracy.packets_unroutable", monitor.packets_unroutable)
        put("accuracy.tunnels", monitor.tunnels)
        put("accuracy.virtual_drops", overflow + random_ + down)
        put("accuracy.physical_drops", monitor.physical_drops)
        put("accuracy.physical_drops_ring", monitor.physical_drops_ring)
        put("accuracy.physical_drops_egress", monitor.physical_drops_egress)
        put("accuracy.physical_drops_uplink", monitor.physical_drops_uplink)
        # Shared, not copied: a long run holds up to max_samples floats.
        stats.error_samples = monitor.error_samples
        stats.max_samples = monitor.max_samples

        # -- edge hosts --------------------------------------------------
        hosts = [host for host in emulation.hosts if host.core.domain_id in owned]
        uplink_bytes = downlink_bytes = 0
        cpu_busy = 0.0
        context_switches = 0
        tcp_totals: Dict[str, int] = {}
        for host in hosts:
            uplink_bytes += host.uplink.bytes_sent
            downlink_bytes += host.downlink.bytes_sent
            if host.cpu is not None:
                cpu = host.cpu.stats()
                cpu_busy += cpu["busy_s"]
                context_switches += cpu["context_switches"]
            for vn in host.vns:
                for key, value in vn.stack.tcp_stats().items():
                    tcp_totals[key] = tcp_totals.get(key, 0) + value
        put("edge.hosts", len(hosts))
        put("edge.uplink_bytes", uplink_bytes)
        put("edge.downlink_bytes", downlink_bytes)
        put("edge.uplink_drops", monitor.physical_drops_uplink)
        if emulation.config.model_edge_cpu:
            put("edge.cpu_busy_s", cpu_busy)
            put("edge.context_switches", context_switches)

        # -- TCP (edge stacks) ------------------------------------------
        for key, value in tcp_totals.items():
            put(f"tcp.{key}", value)

        # -- routing: demand-cache search work --------------------------
        for key, value in emulation.routing.stats().items():
            put(f"routing.{key}", value)

        # -- fault timeline (declarative plans only) --------------------
        applier = emulation.fault_applier
        if applier is not None:
            put("faults.injected", applier.injected)
            put("faults.recovered", applier.recovered)
            put("faults.perturbations", applier.perturbations_applied)
            put("faults.applied", applier.applied)
            put("faults.planned", len(applier.plan.events))
            for link_id in applier.churned_links():
                link = emulation.topology.links.get(link_id)
                if link is not None:
                    put("topology.link_up", 1 if link.up else 0, link=link_id)
            stats.fault_events = list(applier.events_log)
        return stats

    @classmethod
    def merge(cls, parts: Sequence["RunStats"]) -> "RunStats":
        """One run's statistics from the parts its processes gathered
        over disjoint domain sets, ``parts[0]`` gathered by the owner of
        domain 0.

        Counters add up; the labelled series (``{core=}``,
        ``{domain=}``, ``{worker=}``), each gathered by one part only,
        add up to their union. Peaks take
        the maximum and the barrier clock the minimum, as
        :attr:`PartitionedSimulator.now` does over domains. Values
        every process builds identically come from ``parts[0]``. Error
        samples are concatenated in part order up to ``max_samples``,
        so the error summaries are computed once, from the merged
        samples. The merge takes over the parts' metric objects.
        """
        merged = cls()
        if not parts:
            return merged
        first = parts[0]
        merged.virtual_time_s = min(part.virtual_time_s for part in parts)
        merged.max_samples = first.max_samples
        merged.fault_events = list(first.fault_events)
        for part in parts:
            for metric in part.metrics:
                name = metric.name
                held = merged.metrics.get(name, **dict(metric.labels))
                if held is None:
                    merged.metrics.install(metric)
                elif name in _SHARED:
                    pass
                elif isinstance(metric, Histogram):
                    held.merge(metric)
                elif name in _PEAKS:
                    held.value = max(held.value, metric.value)
                else:
                    held.value += metric.value
            room = merged.max_samples - len(merged.error_samples)
            merged.error_samples.extend(part.error_samples[:room])
        return merged

    def publish(self, registry: MetricsRegistry) -> MetricsRegistry:
        """Set every statistic on ``registry``: gauges overwritten,
        hot-path histograms installed, and the error summaries derived
        from the samples."""
        registry.gauge("sim.virtual_time_s").set(self.virtual_time_s)
        registry.update(self.metrics)
        samples = self.error_samples
        mean, p99, worst = error_summary(samples)
        registry.gauge("accuracy.error_samples").set(len(samples))
        registry.gauge("accuracy.mean_error_s").set(mean)
        registry.gauge("accuracy.p99_error_s").set(p99)
        registry.gauge("accuracy.max_error_s").set(worst)
        return registry


def collect_metrics(emulation, registry: MetricsRegistry) -> MetricsRegistry:
    """Read every statistic a run accumulates into ``registry``.

    Safe to call repeatedly (gauges are overwritten with the current
    cumulative totals).
    """
    return RunStats.gather(emulation).publish(registry)


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
    stats: Optional[RunStats] = None,
) -> RunReport:
    """Publish a run's statistics and wrap them in a
    :class:`RunReport`.

    ``stats`` are the run's statistics when another process ran it (a
    multiprocess parent passes the :meth:`RunStats.merge` of its
    workers' parts); by default they are gathered from ``emulation``.
    Either way ``emulation`` supplies only the run's configuration and
    structure. ``registry`` defaults to the emulation's own registry
    when it is a live one, else a fresh :class:`MetricsRegistry` — so
    reports are complete even for runs that disabled hot-path
    observability.
    """
    if registry is None:
        registry = emulation.obs if emulation.obs.enabled else MetricsRegistry()
    if stats is None:
        stats = RunStats.gather(emulation)
    stats.publish(registry)
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
        virtual_time_s=stats.virtual_time_s,
        wall_time_s=wall_time_s,
        metrics=registry.snapshot(),
        fault_events=list(stats.fault_events),
        created_at=created_at,
    )
