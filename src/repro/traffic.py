"""Declarative, spec-portable traffic workloads.

The multiprocess backend and the :mod:`repro.exp` sweep runner both
rebuild scenarios from a picklable :class:`~repro.api.ScenarioSpec`
in another process, so traffic must travel as *names plus parameters*,
not closures. This registry is the sanctioned catalogue: each entry is
a factory ``factory(emulation, **params) -> handle`` registered under
a stable name, installed on a scenario with
:meth:`repro.api.Scenario.workload` and carried in the spec's
``traffic`` tuple.

A handle may expose ``metrics() -> dict``; after the clock runs, the
scenario folds those values into the :class:`~repro.obs.RunReport`
under ``traffic.<entry>.<key>`` — this is how workload-level results
(download speeds, overlay cost ratios) reach the experiment layer's
aggregated datasets without side channels.

Registered entries (the paper's workload families):

``netperf``
    Bulk TCP streams (Figs. 4-6, Table 1). ``pairing="random"`` (what
    :meth:`Scenario.netperf` installs) draws shuffled pairs;
    ``pairing="sequential"`` pairs VN ``2i -> 2i+1``, the Fig. 4
    chain-capacity layout.

``udp-cbr``
    Constant-bit-rate UDP flows with per-receiver sinks — the
    capacity-style UDP load of Sec. 4.2, spec-portable.

``cfs``
    CFS file downloads over a Chord ring (Figs. 7-9): every client
    fetches one file with a configurable prefetch window; per-run
    speed quantiles land in the report.

``acdc``
    The Fig. 12 adaptive-overlay experiment: an ACDC tree over random
    members, link perturbation in a window, sampled cost/delay
    summaries.

``nondeterminism``
    A deliberately unseeded tick for ``seconds`` of virtual time — the
    sanitizer's positive control (:meth:`Scenario.inject_fault`).
"""

from __future__ import annotations

import inspect
from typing import Any, Callable, Dict, List, Optional, Tuple

#: name -> factory(emulation, **params) -> handle
_REGISTRY: Dict[str, Callable[..., Any]] = {}


def register_traffic(name: str) -> Callable[[Callable], Callable]:
    """Register ``factory`` as the named, spec-portable workload."""

    def decorate(factory: Callable) -> Callable:
        if name in _REGISTRY:
            raise ValueError(f"traffic entry {name!r} already registered")
        _REGISTRY[name] = factory
        return factory

    return decorate


def traffic_names() -> List[str]:
    return sorted(_REGISTRY)


def traffic_factory(name: str) -> Callable[..., Any]:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown traffic entry {name!r}; "
            f"valid: {', '.join(traffic_names())}"
        ) from None


def traffic_params(name: str) -> Tuple[str, ...]:
    """Parameter names the named entry accepts (sans ``emulation``)."""
    signature = inspect.signature(traffic_factory(name))
    return tuple(p for p in signature.parameters if p != "emulation")


def validate_params(name: str, params: Dict[str, Any]) -> None:
    """Reject unknown parameter names, the same way
    :meth:`EmulationConfig.validate` rejects unknown knobs."""
    valid = set(traffic_params(name))
    unknown = set(params) - valid
    if unknown:
        raise ValueError(
            f"unknown parameter(s) {sorted(unknown)} for traffic entry "
            f"{name!r}; valid: {', '.join(sorted(valid))}"
        )


def build_traffic(name: str, emulation, **params):
    """Instantiate the named workload on a built emulation."""
    validate_params(name, params)
    return traffic_factory(name)(emulation, **params)


def make_setup(name: str, params: Dict[str, Any]) -> Callable:
    """A traffic callback for :meth:`Scenario.traffic` that carries
    its (name, params) declaratively for the spec round trip."""
    validate_params(name, params)

    def setup(emulation):
        return build_traffic(name, emulation, **params)

    setup._traffic_entry = (name, tuple(sorted(params.items())))
    return setup


def _quantile(values: List[float], fraction: float) -> float:
    ordered = sorted(values)
    index = min(len(ordered) - 1, int(fraction * len(ordered)))
    return ordered[index]


# ----------------------------------------------------------------------
# netperf: bulk TCP streams
# ----------------------------------------------------------------------

@register_traffic("netperf")
def netperf_traffic(
    emulation,
    flows: int = 4,
    seed: Optional[int] = None,
    pairing: str = "random",
):
    """``flows`` bulk TCP streams. ``pairing="random"`` draws shuffled
    sender/receiver pairs from the named ``"netperf-pairs"`` stream of
    ``seed`` (default: the emulation's seed); ``"sequential"`` pairs
    VN ``2i -> 2i+1`` — the Fig. 4 chain layout, where each pair owns
    a private path."""
    from repro.apps.netperf import TcpStream
    from repro.engine.randomness import RngRegistry

    if pairing not in ("random", "sequential"):
        raise ValueError(
            f"unknown pairing {pairing!r}; valid: random, sequential"
        )
    if pairing == "sequential":
        count = min(flows, emulation.num_vns // 2)
        pairs = [(2 * i, 2 * i + 1) for i in range(count)]
    else:
        rng = RngRegistry(
            emulation.seed if seed is None else seed
        ).stream("netperf-pairs")
        vns = list(range(emulation.num_vns))
        rng.shuffle(vns)
        count = min(flows, len(vns) // 2)
        pairs = [(vns[2 * i], vns[2 * i + 1]) for i in range(count)]
    return _NetperfHandle(
        emulation, [TcpStream(emulation, src, dst) for src, dst in pairs]
    )


class _NetperfHandle:
    def __init__(self, emulation, streams):
        self.emulation = emulation
        self.streams = streams

    def metrics(self) -> Dict[str, float]:
        received = sum(s.bytes_received for s in self.streams)
        elapsed = self.emulation.sim.now
        return {
            "netperf.flows": len(self.streams),
            "netperf.bytes_received": received,
            "netperf.goodput_bps": (
                received * 8.0 / elapsed if elapsed > 0 else 0.0
            ),
        }


# ----------------------------------------------------------------------
# udp-cbr: constant-bit-rate UDP flows (capacity-style load)
# ----------------------------------------------------------------------

@register_traffic("udp-cbr")
def udp_cbr_traffic(
    emulation,
    flows: int = 4,
    rate_mbps: float = 1.0,
    packet_bytes: int = 1000,
    start_at: float = 0.0,
):
    """``flows`` CBR UDP senders, VN ``2i`` to a sink on VN
    ``2i+1`` — the modified-netperf UDP load of Sec. 4.2."""
    from repro.apps.netperf import UdpCbrSource, UdpSink

    count = min(flows, emulation.num_vns // 2)
    sinks = [UdpSink(emulation.vn(2 * i + 1)) for i in range(count)]
    sources = [
        UdpCbrSource(
            emulation.vn(2 * i),
            2 * i + 1,
            rate_bps=rate_mbps * 1e6,
            packet_bytes=packet_bytes,
            start_at=start_at,
        )
        for i in range(count)
    ]
    return _UdpCbrHandle(sources, sinks)


class _UdpCbrHandle:
    def __init__(self, sources, sinks):
        self.sources = sources
        self.sinks = sinks

    def metrics(self) -> Dict[str, float]:
        sent = sum(s.sent for s in self.sources)
        received = sum(s.datagrams for s in self.sinks)
        return {
            "udp-cbr.flows": len(self.sources),
            "udp-cbr.datagrams_sent": sent,
            "udp-cbr.datagrams_received": received,
            "udp-cbr.bytes_received": sum(
                s.bytes_received for s in self.sinks
            ),
            "udp-cbr.delivery_ratio": received / sent if sent else 0.0,
        }


# ----------------------------------------------------------------------
# cfs: Chord/CFS downloads (Figs. 7-9)
# ----------------------------------------------------------------------

@register_traffic("cfs")
def cfs_traffic(
    emulation,
    clients: int = 8,
    prefetch_kb: int = 24,
    file_bytes: int = 1_000_000,
    stagger_s: float = 30.0,
):
    """Every client VN downloads one ``file_bytes`` file through a
    CFS ring spanning all VNs, with the given prefetch window.
    Downloads start ``stagger_s`` apart (client ``i`` at
    ``i * stagger_s``) so each one sees an otherwise idle network,
    like the paper's per-(client, file) measurements."""
    from repro.apps.cfs import CfsNetwork

    vn_ids = list(range(emulation.num_vns))
    network = CfsNetwork(emulation, vn_ids)
    handle = _CfsHandle(network, prefetch_kb)
    for index, client in enumerate(vn_ids[: min(clients, len(vn_ids))]):
        file_id = f"cfs-{prefetch_kb}k-{client}"
        network.store_file(file_id, file_bytes)
        emulation.sim.at(
            index * stagger_s,
            handle._start_download,
            client,
            file_id,
            file_bytes,
        )
    return handle


class _CfsHandle:
    def __init__(self, network, prefetch_kb: int):
        self.network = network
        self.prefetch_bytes = prefetch_kb * 1024
        self.started = 0
        self.speeds: List[float] = []

    def _start_download(self, client: int, file_id: str, size: int) -> None:
        self.started += 1
        self.network.client(client).download(
            file_id,
            size,
            prefetch_bytes=self.prefetch_bytes,
            on_done=self.speeds.append,
        )

    def metrics(self) -> Dict[str, float]:
        speeds = self.speeds
        out = {
            "cfs.downloads_started": self.started,
            "cfs.downloads_completed": len(speeds),
        }
        if speeds:
            out.update(
                {
                    "cfs.speed_mean_bytes_s": sum(speeds) / len(speeds),
                    "cfs.speed_p10_bytes_s": _quantile(speeds, 0.10),
                    "cfs.speed_p50_bytes_s": _quantile(speeds, 0.50),
                    "cfs.speed_p90_bytes_s": _quantile(speeds, 0.90),
                }
            )
        return out


# ----------------------------------------------------------------------
# acdc: adaptive overlay under link perturbation (Fig. 12)
# ----------------------------------------------------------------------

@register_traffic("acdc")
def acdc_traffic(
    emulation,
    members: int = 12,
    target_ratio: float = 0.8,
    perturb_start: float = 60.0,
    perturb_stop: float = 180.0,
    period_s: float = 25.0,
    link_fraction: float = 0.25,
    latency_scale_max: float = 1.25,
    sample_every_s: float = 25.0,
    horizon: float = 300.0,
):
    """An ACDC overlay over ``members`` random VNs; between
    ``perturb_start`` and ``perturb_stop`` the latency of
    ``link_fraction`` of links is rescaled every ``period_s`` (the
    paper's "25% of links by 0-25% every 25 s"). Cost-vs-MST and
    worst-case delay are sampled every ``sample_every_s`` until
    ``horizon`` and summarized per phase."""
    from repro.apps.overlay import AcdcOverlay
    from repro.faults import FaultPlan, Perturbation

    rng = emulation.rng.stream("acdc-members")
    member_vns = sorted(
        rng.sample(range(emulation.num_vns), min(members, emulation.num_vns))
    )
    overlay = AcdcOverlay(emulation, member_vns, delay_target_s=1.0)
    overlay.delay_target_s = overlay.spt_delay() / target_ratio
    # The perturbation rides the declarative fault timeline. A scenario
    # that already declared a plan (``Scenario.faults``) owns it; the
    # standalone workload installs one from its own parameters so plain
    # ``workload("acdc")`` keeps perturbing without extra wiring.
    applier = emulation.fault_applier
    if applier is None:
        applier = emulation.install_fault_plan(
            FaultPlan.of(
                Perturbation(
                    start_s=perturb_start,
                    stop_s=perturb_stop,
                    period_s=period_s,
                    link_fraction=link_fraction,
                    latency_scale=(1.0, latency_scale_max),
                )
            )
        )
    handle = _AcdcHandle(
        emulation, overlay, applier, perturb_start, perturb_stop
    )
    sim = emulation.sim
    for tick in range(int(horizon / sample_every_s) + 1):
        sim.at(tick * sample_every_s, handle._sample)
    overlay.start()
    sim.at(horizon, overlay.stop)
    return handle


class _AcdcHandle:
    def __init__(self, emulation, overlay, applier, perturb_start, perturb_stop):
        self.emulation = emulation
        self.overlay = overlay
        self.applier = applier
        self.perturb_start = perturb_start
        self.perturb_stop = perturb_stop
        self.samples: List[Dict[str, float]] = []

    def _sample(self) -> None:
        self.samples.append(
            {
                "t": self.emulation.sim.now,
                "cost_ratio": self.overlay.tree_cost() / self.overlay.mst_cost(),
                "max_delay": self.overlay.actual_max_delay(),
            }
        )

    def _window(self, lo: float, hi: float) -> List[Dict[str, float]]:
        return [s for s in self.samples if lo <= s["t"] < hi]

    def metrics(self) -> Dict[str, float]:
        out = {
            "acdc.members": len(self.overlay.member_vns),
            "acdc.delay_target_s": self.overlay.delay_target_s,
            "acdc.samples": len(self.samples),
            "acdc.perturbations_applied": self.applier.perturbations_applied,
        }
        if not self.samples:
            return out
        settled = self._window(0.0, self.perturb_start) or self.samples[:1]
        stressed = self._window(self.perturb_start, self.perturb_stop)
        recovered = self._window(self.perturb_stop, float("inf"))
        out["acdc.cost_initial"] = self.samples[0]["cost_ratio"]
        out["acdc.cost_settled"] = min(s["cost_ratio"] for s in settled)
        if stressed:
            out["acdc.cost_stressed"] = sum(
                s["cost_ratio"] for s in stressed
            ) / len(stressed)
            out["acdc.max_delay_stressed"] = max(
                s["max_delay"] for s in stressed
            )
        if recovered:
            out["acdc.cost_recovered"] = min(
                s["cost_ratio"] for s in recovered
            )
        out["acdc.max_delay_final"] = self.samples[-1]["max_delay"]
        return out


# ----------------------------------------------------------------------
# nondeterminism: the sanitizer's positive control
# ----------------------------------------------------------------------

@register_traffic("nondeterminism")
def nondeterminism_traffic(emulation, seconds: float = 0.01):
    """Deliberately break determinism for ``seconds`` of virtual time.

    Schedules a self-perpetuating tick whose period comes from an
    *unseeded* RNG, so two same-seed runs dispatch different event
    streams — the positive control for ``repro-net sanitize``. The
    ticks land on the emulation's front-door clock (domain 0 for a
    partitioned simulator), so on the multiprocess backend the
    divergence happens *inside a worker* and must be caught by the
    composed per-domain digests.
    """
    import random as _random

    if seconds <= 0:
        raise ValueError(f"fault duration must be > 0, got {seconds}")
    rng = _random.Random()  # repro: allow-rng (deliberate fault)
    sim = emulation.sim

    def tick() -> None:
        if sim.now < seconds:
            sim.schedule(rng.uniform(1e-4, 1e-3), tick)

    sim.schedule(rng.uniform(1e-4, 1e-3), tick)
