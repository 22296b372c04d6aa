"""An adaptive overlay reacting to injected network changes (Sec. 5.3).

Builds a transit-stub underlay, forms an ACDC-style overlay over 30
member VNs, lets it self-organize toward a low-cost tree meeting a
delay target, then perturbs link delays (the paper's fault-injection
knob) and watches the overlay trade cost for delay and back.

Run:  python examples/adaptive_overlay.py
"""

import random

from repro.apps import AcdcOverlay
from repro.core import EmulationConfig, ExperimentPipeline, FaultApplier
from repro.engine import Simulator
from repro.faults import FaultPlan, Perturbation
from repro.topology import TransitStubSpec, transit_stub_topology


def main() -> None:
    topology = transit_stub_topology(
        TransitStubSpec(
            transit_nodes_per_domain=4,
            stub_domains_per_transit_node=3,
            stub_nodes_per_domain=4,
        ),
        random.Random(5),
    )
    sim = Simulator()
    emulation = (
        ExperimentPipeline(sim)
        .create(topology)
        .run(EmulationConfig.reference())
    )

    members = sorted(random.Random(6).sample(range(emulation.num_vns), 30))
    overlay = AcdcOverlay(emulation, members, delay_target_s=1.0)
    overlay.delay_target_s = overlay.spt_delay() / 0.8
    print(f"members: {len(members)}, delay target {overlay.delay_target_s*1e3:.0f} ms "
          f"(SPT best {overlay.spt_delay()*1e3:.0f} ms)")

    perturbation = Perturbation(
        start_s=200.0, stop_s=500.0, period_s=25.0,
        link_fraction=0.25, latency_scale=(1.0, 1.25),
    )
    FaultApplier(emulation, FaultPlan.of(perturbation)).install()

    print(f"\n{'t(s)':>6} {'cost/MST':>9} {'max delay (ms)':>15} {'switches':>9}")

    def report():
        switches = sum(m.parent_switches for m in overlay.members.values())
        print(
            f"{sim.now:>6.0f} {overlay.tree_cost()/overlay.mst_cost():>9.2f} "
            f"{overlay.actual_max_delay()*1e3:>15.0f} {switches:>9}"
        )

    for t in range(0, 801, 50):
        sim.at(float(t), report)
    overlay.start()
    sim.run(until=801.0)
    overlay.stop()
    print("\n(perturbation active between t=200 and t=500)")


if __name__ == "__main__":
    main()
