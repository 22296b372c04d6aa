"""Per-layer metrics from one traced iteration.

Counts come from the run's own report (exact) and from span call
counts; times are span self times. ``engine.self_s`` is the self time
of the run's root spans: the run wall minus every layer span under
it, so the self times of all layers add up to the traced wall. It
covers the dispatch loop and every callback body that no probe wraps.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Optional

from layers import RUN_LAYERS

END_TO_END = (
    # name, unit, better
    ("setup_s", "s", "lower"),
    ("delivered_pps", "pkts/s", "higher"),
    ("run_cpu_s", "s", "lower"),
    ("total_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("delivery_error_p99_us", "virtual_us", "lower"),
)

_COUNT, _SECONDS, _SHARE, _RATIO = "count", "s", "share", "ratio"

PER_LAYER = (
    [
        ("engine.events", _COUNT, "lower"),
        ("engine.events_per_pkt", _RATIO, "lower"),
        ("engine.self_s", _SECONDS, "lower"),
    ]
    + [(f"engine.events_by_layer.{layer}", _COUNT, "lower") for layer in RUN_LAYERS]
    + [
        ("hardware.link_sends", _COUNT, "lower"),
        ("hardware.link_self_s", _SECONDS, "lower"),
        ("hardware.physical_drops", _COUNT, "lower"),
        ("core.wakeups", _COUNT, "lower"),
        ("core.hops_serviced", _COUNT, "higher"),
        ("core.hops_per_wakeup", _RATIO, "higher"),
        ("core.collect_self_s", _SECONDS, "lower"),
        ("core.pipe_arrival_self_s", _SECONDS, "lower"),
        ("core.ingress_self_s", _SECONDS, "lower"),
        ("core.edge_self_s", _SECONDS, "lower"),
        ("core.batch_departure_share", _SHARE, "higher"),
        ("core.tunnels", _COUNT, "lower"),
        ("core.virtual_drops", _COUNT, "lower"),
        ("net.segments_sent", _COUNT, "lower"),
        ("net.retransmit_share", _SHARE, "lower"),
        ("net.timeouts", _COUNT, "lower"),
        ("net.tcp_self_s", _SECONDS, "lower"),
        ("net.stack_self_s", _SECONDS, "lower"),
        ("routing.lookups", _COUNT, "lower"),
        ("routing.computes", _COUNT, "lower"),
        ("routing.dijkstra_runs", _COUNT, "lower"),
        ("routing.memo_hit_share", _SHARE, "higher"),
        ("routing.route_self_s", _SECONDS, "lower"),
        ("routing.invalidations", _COUNT, "lower"),
        ("faults.applied", _COUNT, "lower"),
        ("faults.self_s", _SECONDS, "lower"),
        ("phases.create_s", _SECONDS, "lower"),
        ("phases.distill_s", _SECONDS, "lower"),
        ("phases.assign_s", _SECONDS, "lower"),
        ("phases.bind_s", _SECONDS, "lower"),
        ("phases.wire_s", _SECONDS, "lower"),
        ("phases.faults_s", _SECONDS, "lower"),
        ("phases.traffic_s", _SECONDS, "lower"),
        ("parallel.epochs", _COUNT, "lower"),
        ("parallel.messages_routed", _COUNT, "lower"),
        ("parallel.msgs_per_epoch", _RATIO, "higher"),
        ("parallel.barrier_s", _SECONDS, "lower"),
        ("parallel.barrier_p50_us", "us", "lower"),
        ("parallel.barrier_p99_us", "us", "lower"),
        ("parallel.parent_self_s", _SECONDS, "lower"),
        ("parallel.frame_bytes", "bytes", "lower"),
        ("parallel.spawn_s", _SECONDS, "lower"),
        ("parallel.finish_s", _SECONDS, "lower"),
        ("parallel.event_imbalance", _RATIO, "lower"),
        ("apps.goodput_mbps", "Mb/s", "higher"),
        ("obs.report_s", _SECONDS, "lower"),
    ]
    + [(f"share.{layer}", _SHARE, "lower") for layer in RUN_LAYERS]
    + [
        ("trace.wall_s", _SECONDS, "lower"),
        ("trace.overhead", _RATIO, "lower"),
        ("trace.accounted_share", _SHARE, "higher"),
    ]
)

PER_LAYER_UNITS = {name: unit for name, unit, _ in PER_LAYER}


def metric_sum(report: Dict, base: str) -> float:
    """Sum of a report metric over its label sets."""
    return sum(
        value
        for key, value in report.items()
        if key.split("{", 1)[0] == base and isinstance(value, (int, float))
    )


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def percentile(values: List[float], fraction: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(fraction * len(ordered)))]


def layer_self(spans: Dict[str, Dict]) -> Dict[str, float]:
    """Self seconds per layer (span-name prefix)."""
    out = {layer: 0.0 for layer in RUN_LAYERS}
    for name, stats in spans.items():
        layer = name.split(".", 1)[0]
        out[layer] = out.get(layer, 0.0) + stats["self_s"]
    return out


def layer_metrics(
    traced: Dict,
    untraced_total_s: float,
    worker: Optional[Dict] = None,
) -> Dict[str, float]:
    """The per-layer metrics of one traced iteration.

    ``traced`` is the measured configuration's traced iteration. On a
    multiprocess workload that run holds only parent-side spans, and
    ``worker`` — a traced serial-partitioned run of the same spec —
    supplies the run-path layers, which dispatch the identical event
    stream there.
    """
    run = worker if worker is not None else traced
    spans = run["spans"]
    parent = traced["spans"]
    report = run["report"]

    def span(source, name, field):
        return source.get(name, {}).get(field, 0)

    events = report.get("sim.events_dispatched", 0)
    delivered = report.get("accuracy.packets_delivered", 0)
    wakeups = metric_sum(report, "sched.wakeups")
    hops = metric_sum(report, "sched.hops_serviced")
    segments = report.get("tcp.segments_sent", 0)
    lookups = span(spans, "routing.lookup", "calls")
    computes = span(spans, "routing.route", "calls")
    by_layer = run.get("events_by_layer", {})
    self_by_layer = layer_self(spans)
    out: Dict[str, float] = {
        "engine.events": events,
        "engine.events_per_pkt": _ratio(events, delivered),
        "engine.self_s": self_by_layer["engine"],
    }
    for layer in RUN_LAYERS:
        out[f"engine.events_by_layer.{layer}"] = by_layer.get(layer, 0)
    out.update({
        "hardware.link_sends": span(spans, "hardware.link_send", "calls"),
        "hardware.link_self_s": span(spans, "hardware.link_send", "self_s"),
        "hardware.physical_drops": report.get("accuracy.physical_drops", 0),
        "core.wakeups": wakeups,
        "core.hops_serviced": hops,
        "core.hops_per_wakeup": _ratio(hops, wakeups),
        "core.collect_self_s": span(spans, "core.collect", "self_s"),
        "core.pipe_arrival_self_s": span(spans, "core.pipe_arrival", "self_s"),
        "core.ingress_self_s": span(spans, "core.ingress", "self_s"),
        "core.edge_self_s": span(spans, "core.edge", "self_s"),
        "core.batch_departure_share": _ratio(
            report.get("pipe.batch_departures", 0), report.get("pipe.departures", 0)
        ),
        "core.tunnels": report.get("accuracy.tunnels", 0),
        "core.virtual_drops": report.get("accuracy.virtual_drops", 0),
        "net.segments_sent": segments,
        "net.retransmit_share": _ratio(report.get("tcp.segments_retransmitted", 0), segments),
        "net.timeouts": report.get("tcp.timeouts", 0),
        "net.tcp_self_s": span(spans, "net.tcp", "self_s"),
        "net.stack_self_s": span(spans, "net.stack", "self_s"),
        "routing.lookups": lookups,
        "routing.computes": computes,
        "routing.dijkstra_runs": span(spans, "routing.dijkstra", "calls"),
        "routing.memo_hit_share": 1.0 - _ratio(computes, lookups) if lookups else 0.0,
        "routing.route_self_s": self_by_layer["routing"],
        "routing.invalidations": span(spans, "routing.invalidate", "calls"),
        "faults.applied": report.get("faults.applied", 0),
        "faults.self_s": self_by_layer["faults"],
    })
    for phase in ("create", "distill", "assign", "bind", "wire", "faults", "traffic"):
        out[f"phases.{phase}_s"] = span(parent, f"phases.{phase}", "total_s")
    mp = traced.get("mp")
    barriers = traced.get("durations", {}).get("parallel.barrier", [])
    if mp is not None:
        counts = list(mp["events_by_domain"].values())
        mean = statistics.fmean(counts) if counts else 0.0
        out.update({
            "parallel.epochs": mp["epochs"],
            "parallel.messages_routed": mp["messages_routed"],
            "parallel.msgs_per_epoch": _ratio(mp["messages_routed"], mp["epochs"]),
            "parallel.event_imbalance": _ratio(max(counts), mean) if counts else 0.0,
        })
    else:
        out.update({
            "parallel.epochs": 0,
            "parallel.messages_routed": 0,
            "parallel.msgs_per_epoch": 0.0,
            "parallel.event_imbalance": 0.0,
        })
    out.update({
        "parallel.barrier_s": span(parent, "parallel.barrier", "total_s"),
        "parallel.barrier_p50_us": percentile(barriers, 0.5) * 1e6,
        "parallel.barrier_p99_us": percentile(barriers, 0.99) * 1e6,
        "parallel.parent_self_s": span(parent, "parallel.run", "self_s"),
        "parallel.frame_bytes": span(parent, "parallel.frame", "measure"),
        "parallel.spawn_s": span(parent, "parallel.spawn", "total_s"),
        "parallel.finish_s": span(parent, "parallel.finish", "total_s"),
        # Bytes the flows' receivers got (TCP or UDP), per virtual second.
        "apps.goodput_mbps": sum(run["fingerprint"]["flows"] or ()) * 8.0
        / traced["horizon_s"] / 1e6,
        "obs.report_s": span(parent, "obs.report", "total_s"),
    })
    wall = traced["traced_wall_s"]
    measured_self = layer_self(parent)
    for layer in RUN_LAYERS:
        out[f"share.{layer}"] = _ratio(measured_self.get(layer, 0.0), wall)
    out["trace.wall_s"] = wall
    out["trace.overhead"] = _ratio(wall, untraced_total_s)
    out["trace.accounted_share"] = _ratio(sum(measured_self.values()), wall)
    return out


def median_metrics(samples: List[Dict[str, float]]) -> Dict[str, float]:
    """Per-metric median over several iterations' metric dicts."""
    return {
        name: statistics.median(sample[name] for sample in samples)
        for name in samples[0]
    }
