"""Spec-portable fault timelines (DESIGN.md §12): one declarative
FaultPlan must produce digest-identical event streams on the serial
and multiprocess backends, at every worker count, and through a
checkpoint/resume — while surfacing churn as typed drops and
metrics, never an unhandled error."""

from pathlib import Path

import pytest

from repro.api import Scenario
from repro.check.sanitize import SimSanitizer
from repro.core.faults import FaultApplier
from repro.engine.parallel import run_multiprocess
from repro.faults import (
    FaultPlan,
    FaultPlanError,
    LinkDown,
    LinkUp,
    NodeChurn,
    Partition,
    Perturbation,
    SetLinkParams,
)
from repro.obs import MetricsRegistry
from repro.resilience import RunAborted, load_checkpoint
from repro.topology import dumbbell_topology, ring_topology

UNTIL = 0.02
EXAMPLES = Path(__file__).resolve().parents[2] / "examples"


def _mixed_plan():
    """Down/up + param timeline + partition + recurring perturbation —
    every event type the acceptance criteria name."""
    return FaultPlan.of(
        LinkDown(0.004, 0),
        LinkUp(0.009, 0),
        SetLinkParams(0.006, 1, latency_s=0.003),
        Partition(0.010, (2,), heal_s=0.014),
        Perturbation(0.002, 0.016, 0.005, link_fraction=0.25),
    )


def _ring_scenario(backend="serial", workers=None, seed=7, plan=None):
    return (
        Scenario(
            ring_topology(num_routers=8, vns_per_router=2), name="flt-ring"
        )
        .distill("hop-by-hop")
        .assign(4)
        .seed(seed)
        .netperf(flows=8)
        .observe(False)
        .backend(backend, domains=4, workers=workers)
        .faults(plan if plan is not None else _mixed_plan())
    )


def _digest(scenario, until=UNTIL):
    scenario.build()
    sanitizer = SimSanitizer().attach(scenario.sim)
    try:
        scenario.run(until=until)
    finally:
        sanitizer.detach()
    return sanitizer.digest, sanitizer.dispatched


# ----------------------------------------------------------------------
# Round trips: JSON, spec, overrides
# ----------------------------------------------------------------------

def test_plan_round_trips_through_json():
    plan = _mixed_plan()
    assert FaultPlan.from_json(plan.to_json()) == plan


def test_plan_rides_the_spec_and_reproduces_the_digest():
    baseline, events = _digest(_ring_scenario())
    spec = _ring_scenario().to_spec()
    assert spec.faults == _mixed_plan()
    replayed, replayed_events = _digest(Scenario.from_spec(spec))
    assert replayed == baseline
    assert replayed_events == events


def test_with_overrides_moves_plan_and_traffic_axes_together():
    plan = FaultPlan.of(Perturbation(60.0, 180.0, 25.0))
    spec = _ring_scenario(plan=plan).to_spec()
    moved = spec.with_overrides(perturb_start=30.0, latency_scale_max=1.5)
    [event] = moved.faults.events
    assert event.start_s == 30.0
    assert event.latency_scale == (1.0, 1.5)
    # The original spec is untouched (plans are frozen values).
    assert spec.faults == plan


def test_validate_refuses_unknown_links_upfront():
    plan = FaultPlan.of(LinkDown(0.001, 9999))
    with pytest.raises(FaultPlanError, match="9999"):
        _ring_scenario(plan=plan).build()


# ----------------------------------------------------------------------
# Digest invariance: backends, worker counts
# ----------------------------------------------------------------------

def test_serial_and_multiprocess_agree_at_every_worker_count():
    serial_digest, serial_events = _digest(_ring_scenario())
    serial_counters = None
    for workers in (1, 2, 3, 4):
        scenario = _ring_scenario("multiprocess", workers=workers)
        scenario.build()
        result = run_multiprocess(
            scenario, until=UNTIL, workers=workers
        )
        assert result.composed_digest == serial_digest
        assert result.events_dispatched == serial_events
        flat = result.stats.publish(MetricsRegistry()).snapshot()
        assert flat["faults.applied"] > 0
        counters = (
            {key: value for key, value in flat.items() if key.startswith("faults.")},
            result.stats.fault_events,
        )
        if serial_counters is None:
            serial_counters = counters
        assert counters == serial_counters


def _record_applications(scenario):
    """Wrap the built scenario's applier: every occurrence it applies
    logs ``(time, [each domain's clock], events still pending)``."""
    applier = scenario.emulation.fault_applier
    sim = scenario.sim
    domains = getattr(sim, "domains", None) or [sim]
    apply_action = applier._apply_action
    log = []

    def recording(action, when):
        log.append((
            when,
            [domain.now for domain in domains],
            min(domain.next_event_time() for domain in domains),
        ))
        apply_action(action, when)

    applier._apply_action = recording
    return log


@pytest.mark.parametrize("domains", [1, 2, 4])
def test_every_domain_applies_each_occurrence_at_its_exact_time(domains):
    plan = FaultPlan.from_json_file(str(EXAMPLES / "faultplan.json"))
    scenario = (
        Scenario.from_gml(str(EXAMPLES / "ring8x2.gml"))
        .distill("hop-by-hop")
        .assign(4)
        .netperf(flows=8)
        .seed(1)
        .observe(True)
        .backend("serial", domains=domains)
        .faults(plan)
    )
    scenario.build()
    log = _record_applications(scenario)
    report = scenario.run(until=0.2)
    # 9 occurrences: down, up, set, partition, heal, 3 perturbations
    # (t = 0.02, 0.07, 0.12) and the restore at 0.17.
    assert report.metrics["faults.applied"] == len(log) == 9
    for when, clocks, _ in log:
        assert clocks == [when] * domains


def _tail_scenario(backend, domains, workers=None):
    return (
        Scenario(ring_topology(num_routers=8, vns_per_router=2), name="tail")
        .distill("hop-by-hop")
        .assign(4)
        .seed(1)
        .workload("cfs", clients=1, file_bytes=20_000)
        .observe(True)
        .backend(backend, domains=domains, workers=workers)
        .faults(FaultPlan.of(LinkDown(0.45, 0)))
    )


@pytest.mark.parametrize("domains", [1, 4])
def test_occurrence_after_the_last_traffic_event_is_applied(domains):
    """Traffic (one small CFS download) drains long before the
    occurrence at 0.45 s; a run to 0.5 s still applies it."""
    scenario = _tail_scenario("serial", domains)
    scenario.build()
    log = _record_applications(scenario)
    report = scenario.run(until=0.5)
    assert [(when, pending) for when, _, pending in log] == [(0.45, float("inf"))]
    assert report.metrics["faults.applied"] == 1
    assert report.metrics["topology.link_up{link=0}"] == 0


def test_occurrence_after_the_last_traffic_event_is_applied_multiprocess():
    report = _tail_scenario("multiprocess", 4, workers=2).run(until=0.5)
    assert report.metrics["faults.applied"] == 1
    assert report.metrics["topology.link_up{link=0}"] == 0


def test_flapping_storm_is_digest_invariant_across_backends():
    """Rapid down/up flaps spaced well below the ~2 ms cross-domain
    lookahead: each one cuts an epoch short and must apply at the same
    point on the serial and multiprocess backends."""
    flaps = []
    when = 0.0050
    for _ in range(10):
        flaps.append(LinkDown(when, 0))
        flaps.append(LinkUp(when + 0.0001, 0))
        when += 0.0002
    storm = FaultPlan.of(*flaps)
    serial_digest, _ = _digest(_ring_scenario(plan=storm))
    scenario = _ring_scenario("multiprocess", workers=2, plan=storm)
    scenario.build()
    result = run_multiprocess(scenario, until=UNTIL, workers=2)
    assert result.composed_digest == serial_digest
    flat = result.stats.publish(MetricsRegistry()).snapshot()
    assert flat["faults.injected"] == 10
    assert flat["faults.recovered"] == 10


def test_in_flight_packets_on_failed_pipe_drop_deterministically():
    """Killing a loaded link mid-run flushes its pipes: the in-flight
    packets become typed ``drops_down``, identically on serial and
    multiprocess (the flush happens at the occurrence's exact time)."""
    plan = FaultPlan.of(LinkDown(0.010, 0))
    serial = _ring_scenario(plan=plan).observe(True)
    report = serial.run(until=UNTIL)
    assert report.metrics["pipe.drops_down"] > 0
    assert report.metrics["faults.injected"] == 1

    serial_digest, serial_events = _digest(_ring_scenario(plan=plan))
    mp = _ring_scenario("multiprocess", workers=2, plan=plan)
    mp.build()
    result = run_multiprocess(mp, until=UNTIL, workers=2)
    assert result.composed_digest == serial_digest
    assert result.events_dispatched == serial_events


def test_partitioned_destination_surfaces_as_drops_not_keyerror():
    """A partition that never heals: flows into the cut must degrade
    to typed drops/unroutable counts, not an unhandled KeyError."""
    topology = ring_topology(num_routers=8, vns_per_router=2)
    cut = tuple(sorted(topology.links))[:4]
    plan = FaultPlan.of(Partition(0.002, cut))
    scenario = _ring_scenario(plan=plan).observe(True)
    report = scenario.run(until=UNTIL)  # must not raise
    dropped = (
        report.metrics.get("pipe.drops_down", 0)
        + report.metrics.get("accuracy.packets_unroutable", 0)
    )
    assert dropped > 0
    assert report.metrics["faults.injected"] == len(cut)


def test_node_churn_fails_all_incident_links():
    topology = ring_topology(num_routers=8, vns_per_router=2)
    node = sorted(topology.nodes)[0]
    incident = [link.id for link in topology.links_of(node)]
    plan = FaultPlan.of(
        NodeChurn(0.004, node, up=False), NodeChurn(0.012, node, up=True)
    )
    scenario = _ring_scenario(plan=plan)
    scenario.run(until=UNTIL)
    applier = scenario.emulation.fault_applier
    assert applier.injected == len(incident)
    assert applier.recovered == len(incident)
    for link_id in incident:
        assert scenario.emulation.topology.links[link_id].up


# ----------------------------------------------------------------------
# Lookahead floor guard
# ----------------------------------------------------------------------

def test_plan_below_lookahead_floor_is_refused_with_typed_error():
    topology = ring_topology(num_routers=8, vns_per_router=2)
    lowering = FaultPlan.of(
        *[
            SetLinkParams(0.005, link_id, latency_s=1e-6)
            for link_id in sorted(topology.links)
        ]
    )
    with pytest.raises(FaultPlanError, match="lookahead floor"):
        _ring_scenario(plan=lowering).build()


def test_lowering_latency_above_floor_is_allowed():
    plan = FaultPlan.of(SetLinkParams(0.005, 0, latency_s=0.001))
    digest, events = _digest(_ring_scenario(plan=plan))
    assert events > 0
    repeat, _ = _digest(_ring_scenario(plan=plan))
    assert repeat == digest


# ----------------------------------------------------------------------
# Checkpoint / resume mid-timeline
# ----------------------------------------------------------------------

def test_resume_mid_timeline_equals_uninterrupted(tmp_path):
    until = 0.02
    path = str(tmp_path / "faults.ckpt")

    full = _ring_scenario().resilience().run(until=until)
    full_digest = full.metrics["run.digest"]
    full_events = full.metrics["run.events"]
    assert full.metrics["faults.applied"] > 0

    interrupted = _ring_scenario().resilience(
        checkpoint_every=0.004, checkpoint=path,
        max_events=int(full_events * 0.6),
    )
    with pytest.raises(RunAborted):
        interrupted.run(until=until)

    checkpoint = load_checkpoint(path)
    assert 0 < checkpoint.barrier_time < until
    # The checkpoint pins the timeline position and the perturbed
    # per-link state at the barrier, not just the event digests.
    assert checkpoint.fault_cursor is not None
    assert checkpoint.link_state
    resumed = Scenario.from_checkpoint(path).run(until=until)
    assert resumed.metrics["run.digest"] == full_digest
    assert resumed.metrics["run.events"] == full_events
    assert resumed.metrics["faults.applied"] == full.metrics["faults.applied"]


# ----------------------------------------------------------------------
# Observability
# ----------------------------------------------------------------------

def test_fault_counters_gauges_and_events_in_report():
    report = _ring_scenario().observe(True).run(until=UNTIL)
    assert report.metrics["faults.injected"] >= 2
    assert report.metrics["faults.recovered"] >= 2
    assert report.metrics["faults.perturbations"] >= 1
    assert report.metrics["faults.planned"] == len(_mixed_plan().events)
    # Both churned links healed by the end of the run.
    assert report.metrics["topology.link_up{link=0}"] == 1
    assert report.metrics["topology.link_up{link=2}"] == 1
    kinds = {event["kind"] for event in report.fault_events}
    assert {"link_down", "link_up", "set_link_params", "perturbation"} <= kinds
    round_tripped = type(report).from_json(report.to_json())
    assert round_tripped.fault_events == report.fault_events


def test_link_up_gauges_only_for_links_the_plan_takes_down_or_up():
    report = _ring_scenario().observe(True).run(until=UNTIL)
    gauged = {
        name for name in report.metrics if name.startswith("topology.link_up")
    }
    assert gauged == {"topology.link_up{link=0}", "topology.link_up{link=2}"}
    perturbed = {
        link
        for event in report.fault_events
        if event["kind"] == "perturbation"
        for link in event["links"]
    }
    only_perturbed = perturbed - {0, 2}
    assert only_perturbed
    for link in only_perturbed | {1}:  # link 1: SetLinkParams only
        assert f"topology.link_up{{link={link}}}" not in report.metrics


def test_multiprocess_report_carries_worker_fault_counters():
    report = (
        _ring_scenario("multiprocess", workers=2)
        .observe(True)
        .run(until=UNTIL)
    )
    assert report.metrics["faults.injected"] >= 2
    assert report.metrics["faults.recovered"] >= 2


# ----------------------------------------------------------------------
# Lazy-snapshot regression
# ----------------------------------------------------------------------

def test_deliberate_param_change_after_injector_construction_survives():
    """Regression: snapshotting every link eagerly when the applier
    is installed would let the perturbation window's restore clobber
    a deliberate set_link_params made after it. Snapshots are taken
    lazily at first perturbation."""
    scenario = (
        Scenario.from_topology(dumbbell_topology(2), name="flt-dumbbell")
        .distill("hop-by-hop")
        .seed(1)
        .netperf(flows=2)
        .observe(False)
    )
    emulation = scenario.build()
    link_id = sorted(emulation.topology.links)[0]
    perturbation = Perturbation(
        start_s=0.004, stop_s=0.008, period_s=0.002,
        link_fraction=1.0, latency_scale=(2.0, 2.0), link_ids=(link_id,),
    )
    FaultApplier(emulation, FaultPlan.of(perturbation)).install()
    emulation.set_link_params(link_id, latency_s=0.005)  # deliberate
    scenario.run(until=0.012)
    pipe, _ = emulation.pipes_of_link(link_id)
    assert pipe.latency_s == pytest.approx(0.005)
