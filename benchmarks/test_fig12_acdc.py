"""Figure 12 — ACDC cost and delay under dynamic network changes.

The paper: a 600-node GT-ITM transit-stub topology (transit-transit
155 Mb/s cost 20-40, transit-stub 45 Mb/s cost 10-20, stub-stub
100 Mb/s cost 1-5); 120 random members form an ACDC overlay with a
delay target. After 500 s of stabilization, ModelNet raises the
delay of 25% of randomly chosen links by 0-25% every 25 s until
t=1500, then conditions subside. Plotted vs. time: overlay cost
relative to an (offline) minimum-cost spanning tree, and the
worst-case overlay delay.

Shape targets:

* the overlay drives its cost ratio down during stabilization;
* during perturbation the overlay adapts — max delay stays bounded
  near the target (sometimes sacrificing cost);
* after conditions subside the overlay reduces cost again.
"""

import random

import pytest

from benchmarks.conftest import full_scale
from repro.apps import AcdcOverlay
from repro.core import EmulationConfig, ExperimentPipeline, FaultApplier
from repro.engine import Simulator
from repro.faults import FaultPlan, Perturbation
from repro.topology import LinkKind, TransitStubSpec, transit_stub_topology
from repro.topology.annotate import LinkClassParams


def acdc_link_params():
    """The ACDC experiment's link classes (paper Sec. 5.3), with
    latencies giving wide-area-scale tree delays."""
    return {
        LinkKind.TRANSIT_TRANSIT: LinkClassParams(
            bandwidth_bps=(155e6, 155e6), latency_s=(0.080, 0.120), cost=(20, 40)
        ),
        LinkKind.STUB_TRANSIT: LinkClassParams(
            bandwidth_bps=(45e6, 45e6), latency_s=(0.030, 0.050), cost=(10, 20)
        ),
        LinkKind.STUB_STUB: LinkClassParams(
            bandwidth_bps=(100e6, 100e6), latency_s=(0.015, 0.025), cost=(1, 5)
        ),
        LinkKind.CLIENT_STUB: LinkClassParams(
            bandwidth_bps=(100e6, 100e6), latency_s=(0.005, 0.010), cost=(1, 1)
        ),
    }


def run_experiment():
    if full_scale():
        spec = TransitStubSpec(
            transit_nodes_per_domain=6,
            stub_domains_per_transit_node=5,
            stub_nodes_per_domain=10,
            link_params=acdc_link_params(),
        )  # 606 nodes
        members, horizon = 120, 3000.0
        perturb_window = (500.0, 1500.0)
    else:
        spec = TransitStubSpec(
            transit_nodes_per_domain=4,
            stub_domains_per_transit_node=4,
            stub_nodes_per_domain=6,
            link_params=acdc_link_params(),
        )  # ~200 nodes
        members, horizon = 60, 1500.0
        perturb_window = (300.0, 800.0)

    rng = random.Random(12)
    topology = transit_stub_topology(spec, rng)
    sim = Simulator()
    emulation = (
        ExperimentPipeline(sim)
        .create(topology)
        .run(EmulationConfig.reference())
    )
    member_vns = sorted(rng.sample(range(emulation.num_vns), members))
    overlay = AcdcOverlay(emulation, member_vns, delay_target_s=1.0)
    # Like the paper, pick the target so the best possible (SPT)
    # delay sits close below it — that's what makes the goal hard.
    overlay.delay_target_s = overlay.spt_delay() / 0.8

    perturbation = Perturbation(
        start_s=perturb_window[0], stop_s=perturb_window[1], period_s=25.0,
        link_fraction=0.25, latency_scale=(1.0, 1.25),
    )
    FaultApplier(emulation, FaultPlan.of(perturbation)).install()

    samples = []

    def sample():
        samples.append(
            {
                "t": sim.now,
                "cost_ratio": overlay.tree_cost() / overlay.mst_cost(),
                "max_delay": overlay.actual_max_delay(),
            }
        )

    for t in range(0, int(horizon) + 1, 25):
        sim.at(float(t), sample)
    overlay.start()
    sim.run(until=horizon + 1)
    overlay.stop()
    return samples, overlay, perturb_window


def test_fig12_acdc(benchmark, sink):
    samples, overlay, (p_start, p_stop) = benchmark.pedantic(
        run_experiment, rounds=1, iterations=1
    )
    sink.row("Figure 12: ACDC cost (vs MST) and max delay over time")
    sink.row(f"delay target: {overlay.delay_target_s:.2f}s  SPT delay: {overlay.spt_delay():.2f}s")
    sink.row(f"{'t(s)':>6} {'cost/MST':>9} {'max_delay(s)':>13}")
    for sample in samples[:: max(1, len(samples) // 30)]:
        sink.row(
            f"{sample['t']:>6.0f} {sample['cost_ratio']:>9.2f} "
            f"{sample['max_delay']:>13.2f}"
        )

    def window(lo, hi):
        return [s for s in samples if lo <= s["t"] < hi]

    initial = samples[0]
    settled = window(p_start - 100, p_start)
    perturbed = window(p_start + 50, p_stop)
    recovered = window(p_stop + (p_stop - p_start) * 0.4, 1e12)

    # Stabilization reduces cost from the random join point.
    settled_cost = min(s["cost_ratio"] for s in settled)
    assert settled_cost < initial["cost_ratio"]
    assert settled_cost < 2.5  # in the vicinity of MST, as in the figure

    # The overlay keeps worst-case delay bounded near the target
    # throughout the perturbation (it adapts rather than blowing up).
    target = overlay.delay_target_s
    violations = [s for s in perturbed if s["max_delay"] > 1.6 * target]
    assert len(violations) < 0.4 * len(perturbed)

    # After conditions subside, cost comes back down to (or below)
    # the stressed level.
    stressed_cost = sum(s["cost_ratio"] for s in perturbed) / len(perturbed)
    recovered_cost = min(s["cost_ratio"] for s in recovered)
    assert recovered_cost <= stressed_cost * 1.1

    # The overlay meets its delay target in steady state.
    final = samples[-1]
    assert final["max_delay"] < 1.6 * target
