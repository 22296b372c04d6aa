"""The Scenario facade: parity with hand-wired pipelines, validation."""

import pytest

from repro import MetricsRegistry, RunReport, Scenario
from repro.apps.netperf import TcpStream
from repro.core import DistillationMode, EmulationConfig, ExperimentPipeline
from repro.engine import Simulator
from repro.topology import dumbbell_topology, ring_topology, save_gml


def _traffic(emulation):
    return [TcpStream(emulation, 0, 3), TcpStream(emulation, 1, 4)]


def test_scenario_matches_hand_wired_emulation():
    # Hand-wired: the documented low-level path.
    sim = Simulator()
    hand = (
        ExperimentPipeline(sim, seed=3)
        .create(dumbbell_topology(clients_per_side=3))
        .distill(DistillationMode.HOP_BY_HOP)
        .assign(2)
        .bind(2)
        .run(EmulationConfig())
    )
    _traffic(hand)
    sim.run(until=2.0)

    # Facade, same knobs and seed.
    scenario = (
        Scenario.from_topology(dumbbell_topology(clients_per_side=3))
        .distill("hop-by-hop")
        .assign(cores=2)
        .bind(hosts=2)
        .seed(3)
        .traffic(_traffic)
    )
    report = scenario.run(until=2.0)
    facade = scenario.emulation

    assert facade.monitor.packets_entered == hand.monitor.packets_entered
    assert facade.monitor.packets_delivered == hand.monitor.packets_delivered
    assert facade.virtual_drops() == hand.virtual_drops()
    assert sum(p.arrivals for p in facade.pipes.built()) == sum(
        p.arrivals for p in hand.pipes.built()
    )
    assert report.metric("accuracy.packets_delivered") == (
        hand.monitor.packets_delivered
    )
    assert report.seed == 3
    assert report.virtual_time_s == pytest.approx(2.0)


def test_scenario_from_gml(tmp_path):
    path = tmp_path / "ring.gml"
    save_gml(ring_topology(num_routers=4, vns_per_router=1), str(path))
    report = (
        Scenario.from_gml(str(path))
        .netperf(flows=2)
        .run(until=1.0)
    )
    assert isinstance(report, RunReport)
    assert report.metric("accuracy.packets_delivered") > 0
    assert report.topology["nodes"] == 8


def test_scenario_distill_mode_names():
    scenario = Scenario.from_topology(ring_topology(4, 1))
    scenario.distill("last-mile")
    assert scenario._mode is DistillationMode.WALK_IN
    with pytest.raises(ValueError, match="unknown distillation mode"):
        scenario.distill("frobnicate")


def test_scenario_config_rejects_unknown_knobs():
    scenario = Scenario.from_topology(ring_topology(4, 1))
    with pytest.raises(ValueError, match="tick_z"):
        scenario.config(tick_z=1e-4)
    # The error names the valid knobs.
    with pytest.raises(ValueError, match="tick_s"):
        scenario.config(nope=1)


def test_placement_and_seed_are_not_config_knobs():
    """Cores, hosts and seed are set by assign/bind/seed only; naming
    them as config knobs fails loudly instead of being ignored."""
    scenario = Scenario.from_topology(ring_topology(4, 1))
    with pytest.raises(ValueError, match=r"\['num_cores'\]; valid: .*tick_s"):
        scenario.config(num_cores=2)
    with pytest.raises(ValueError, match=r"\['seed'\]; valid: .*tick_s"):
        scenario.config(seed=7)
    with pytest.raises(ValueError, match=r"\['num_hosts'\]; valid: .*hosts"):
        scenario.to_spec().with_overrides(num_hosts=4)
    with pytest.raises(TypeError, match="binding_strategy"):
        EmulationConfig(binding_strategy="round_robin")


def test_bind_default_follows_the_domains_and_a_named_host_count_wins():
    """No host count: one host serially, locality binding (one host
    per client node) when partitioned. A named count, 1 included, is
    the placement the run gets."""
    topology = ring_topology(4, 2)
    clients = len(topology.clients())

    def hosts(scenario):
        return len(scenario.build().hosts)

    assert hosts(Scenario.from_topology(topology).assign(cores=2)) == 1
    partitioned = Scenario.from_topology(topology).assign(cores=2).backend(domains=2)
    assert hosts(partitioned) == clients
    assert hosts(
        Scenario.from_topology(topology).assign(cores=2).bind(hosts=1).backend(domains=2)
    ) == 1
    spec = partitioned.to_spec().with_overrides(hosts=1)
    assert hosts(Scenario.from_spec(spec)) == 1


def test_scenario_reference_mode_is_exact():
    report = (
        Scenario.from_topology(dumbbell_topology(clients_per_side=2))
        .config(reference=True)
        .traffic(lambda e: [TcpStream(e, 0, 2)])
        .run(until=1.0)
    )
    assert report.config["model_physical"] is False
    assert report.metric("accuracy.max_error_s") == pytest.approx(0.0, abs=1e-12)


def test_scenario_observe_false_uses_null_registry():
    scenario = (
        Scenario.from_topology(dumbbell_topology(clients_per_side=2))
        .observe(False)
        .traffic(lambda e: [TcpStream(e, 0, 2)])
    )
    report = scenario.run(until=1.0)
    emulation = scenario.emulation
    assert not emulation.obs.enabled
    assert all(p._timer is None for p in emulation.pipes.built())
    # Pull-collected metrics are still in the report.
    assert report.metric("pipe.arrivals") > 0
    assert report.metric("pipe.enqueue_s") is None


def test_scenario_frozen_after_build():
    scenario = Scenario.from_topology(dumbbell_topology(clients_per_side=2))
    scenario.build()
    with pytest.raises(RuntimeError, match="frozen"):
        scenario.assign(cores=2)
    with pytest.raises(RuntimeError, match="frozen"):
        scenario.seed(9)
    with pytest.raises(RuntimeError, match="frozen"):
        scenario.config(tick_s=1e-3)


def test_scenario_run_validates_until():
    scenario = Scenario.from_topology(ring_topology(4, 1))
    with pytest.raises(ValueError):
        scenario.run(until=0)


def test_scenario_rejects_bad_stage_arguments():
    scenario = Scenario.from_topology(ring_topology(4, 1))
    with pytest.raises(ValueError):
        scenario.assign(cores=0)
    with pytest.raises(ValueError):
        scenario.bind(hosts=0)


def test_scenario_phase_timings_recorded():
    scenario = (
        Scenario.from_topology(dumbbell_topology(clients_per_side=2))
        .traffic(lambda e: [TcpStream(e, 0, 2)])
    )
    report = scenario.run(until=1.0)
    assert report.metric("phase.build_s")["count"] == 1
    assert report.metric("phase.run_s")["count"] == 1
    assert report.metric("distill.pipes") > 0


def test_scenario_accepts_external_registry():
    registry = MetricsRegistry()
    (
        Scenario.from_topology(dumbbell_topology(clients_per_side=2))
        .observe(registry=registry)
        .traffic(lambda e: [TcpStream(e, 0, 2)])
        .run(until=1.0)
    )
    assert registry.snapshot()["pipe.enqueue_s"]["count"] > 0


def _rich_scenario():
    """A scenario with a non-default value in every ScenarioSpec field."""
    import random

    from repro.core.assign import greedy_k_clusters
    from repro.core.bind import bind_vns
    from repro.faults import FaultPlan, LinkDown

    topology = dumbbell_topology(clients_per_side=3)
    return (
        Scenario.from_topology(topology, name="rich")
        .distill("last-mile", walk_in=2, walk_out=1)
        .assign(assignment=greedy_k_clusters(topology, 2, random.Random(0)))
        .bind(hosts=2, strategy="round_robin",
              binding=bind_vns(topology, 2, 2, strategy="round_robin"))
        .config(tick_s=0.002, reference=True)
        .seed(11)
        .netperf(flows=3, seed=4)
        .inject_fault(seconds=0.02)
        .workload("udp-cbr", flows=2)
        .faults(FaultPlan.of(LinkDown(0.01, 0)))
    )


def test_spec_round_trip_preserves_every_field():
    """Drift guard: every public ScenarioSpec knob must both differ
    from the default here and survive to_spec -> from_spec -> to_spec.
    Adding a spec field without wiring it through fails this test."""
    import dataclasses

    from repro.api import ScenarioSpec

    baseline = Scenario.from_topology(
        dumbbell_topology(clients_per_side=2)
    ).to_spec()
    spec = _rich_scenario().to_spec()
    for fld in dataclasses.fields(ScenarioSpec):
        assert getattr(spec, fld.name) != getattr(baseline, fld.name), (
            f"ScenarioSpec.{fld.name} not exercised by _rich_scenario(); "
            "extend it so round-trip coverage stays complete"
        )
    assert Scenario.from_spec(spec).to_spec() == spec


def test_with_overrides_resolves_each_knob_family():
    spec = _rich_scenario().to_spec()
    derived = spec.with_overrides(
        seed=21,              # spec passthrough
        mode="hop-by-hop",    # distillation mode by name
        cores=3,              # drops the stale assignment
        hosts=3,              # drops the stale binding
        tick_s=0.01,          # EmulationConfig knob
        flows=5,              # every traffic entry declaring it
    )
    assert derived.seed == 21
    assert derived.mode is DistillationMode.HOP_BY_HOP
    assert derived.cores == 3 and derived.assignment is None
    assert derived.hosts == 3 and derived.binding is None
    assert derived.knobs["tick_s"] == 0.01
    traffic = {name: dict(params) for name, params in derived.traffic}
    assert traffic["netperf"] == {"flows": 5, "seed": 4}
    assert traffic["udp-cbr"]["flows"] == 5
    # The source spec is untouched (frozen derivation, not mutation).
    assert spec.seed == 11 and spec.assignment is not None


def test_with_overrides_rejects_unknown_knobs():
    spec = Scenario.from_topology(
        dumbbell_topology(clients_per_side=2)
    ).to_spec()
    with pytest.raises(ValueError, match="bandwidthz"):
        spec.with_overrides(bandwidthz=10)


def test_variants_expand_in_insertion_order_last_axis_fastest():
    scenario = (
        Scenario.from_topology(dumbbell_topology(clients_per_side=2))
        .netperf(flows=2)
    )
    specs = scenario.variants(seed=[1, 2], flows=[2, 4])
    assert [(s.seed, dict(s.traffic[0][1])["flows"]) for s in specs] == [
        (1, 2), (1, 4), (2, 2), (2, 4),
    ]


def test_variants_reject_unknown_axis():
    scenario = Scenario.from_topology(dumbbell_topology(clients_per_side=2))
    with pytest.raises(ValueError, match="warpdrive"):
        scenario.variants(warpdrive=[1, 2])
