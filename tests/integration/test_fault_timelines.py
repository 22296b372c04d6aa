"""Spec-portable fault timelines (DESIGN.md §12): one declarative
FaultPlan must produce digest-identical event streams on the serial
and multiprocess backends, at every worker count, on every pipe
kernel, and through a checkpoint/resume — while surfacing churn as
typed drops and metrics, never an unhandled error."""

import pytest

from repro.api import Scenario
from repro.check.sanitize import SimSanitizer
from repro.core.kernel import KERNELS
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
from repro.resilience import RunAborted, load_checkpoint
from repro.topology import dumbbell_topology, ring_topology

UNTIL = 0.02


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


def _ring_scenario(backend="serial", workers=None, seed=7, kernel=None,
                   plan=None):
    return (
        Scenario(
            ring_topology(num_routers=8, vns_per_router=2), name="flt-ring"
        )
        .distill("hop-by-hop")
        .assign(4)
        .seed(seed)
        .netperf(flows=8)
        .observe(False)
        .backend(backend, domains=4, workers=workers, kernel=kernel)
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
# Digest invariance: backends, worker counts, kernels
# ----------------------------------------------------------------------

def test_serial_and_multiprocess_agree_at_every_worker_count():
    serial_digest, serial_events = _digest(_ring_scenario())
    serial_counters = None
    for workers in (1, 2, 4):
        scenario = _ring_scenario("multiprocess", workers=workers)
        scenario.build()
        result = run_multiprocess(
            scenario, until=UNTIL, workers=workers
        )
        assert result.composed_digest == serial_digest
        assert result.events_dispatched == serial_events
        counters = scenario.emulation.fault_applier.counters()
        assert counters["applied"] > 0
        if serial_counters is None:
            serial_counters = counters
        assert counters == serial_counters


def test_flapping_storm_is_digest_invariant_across_kernels():
    """Rapid down/up flaps spaced well below the ~2 ms cross-domain
    lookahead: occurrences land mid-epoch and must still apply at the
    same barriers on every kernel."""
    flaps = []
    when = 0.0050
    for _ in range(10):
        flaps.append(LinkDown(when, 0))
        flaps.append(LinkUp(when + 0.0001, 0))
        when += 0.0002
    storm = FaultPlan.of(*flaps)
    digests = {}
    for kernel in KERNELS:
        digests[kernel], _ = _digest(_ring_scenario(kernel=kernel, plan=storm))
    assert len(set(digests.values())) == 1, digests
    scenario = _ring_scenario("multiprocess", workers=2, plan=storm)
    scenario.build()
    result = run_multiprocess(scenario, until=UNTIL, workers=2)
    assert result.composed_digest == digests[KERNELS[0]]
    assert scenario.emulation.fault_applier.injected == 10
    assert scenario.emulation.fault_applier.recovered == 10


def test_in_flight_packets_on_failed_pipe_drop_deterministically():
    """Killing a loaded link mid-run flushes its pipes: the in-flight
    packets become typed ``drops_down``, identically on serial and
    multiprocess (the epoch barrier aligns the flush point)."""
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


def test_multiprocess_report_carries_worker_fault_counters():
    report = (
        _ring_scenario("multiprocess", workers=2)
        .observe(True)
        .run(until=UNTIL)
    )
    assert report.metrics["faults.injected"] >= 2
    assert report.metrics["faults.recovered"] >= 2


# ----------------------------------------------------------------------
# Imperative injector regression (lazy snapshots)
# ----------------------------------------------------------------------

def test_deliberate_param_change_after_injector_construction_survives():
    """Regression: FaultInjector snapshotted every link eagerly at
    construction, so a deliberate post-construction set_link_params
    was clobbered by the perturbation window's restore. Snapshots are
    now taken lazily at first perturbation."""
    from repro.core.faults import FaultInjector, LinkPerturbation

    scenario = (
        Scenario.from_topology(dumbbell_topology(2), name="flt-dumbbell")
        .distill("hop-by-hop")
        .seed(1)
        .netperf(flows=2)
        .observe(False)
    )
    emulation = scenario.build()
    injector = FaultInjector(emulation)
    link_id = sorted(emulation.topology.links)[0]
    emulation.set_link_params(link_id, latency_s=0.005)  # deliberate
    injector.start_perturbation(
        LinkPerturbation(
            period_s=0.002, link_fraction=1.0, latency_scale=(2.0, 2.0)
        ),
        start_s=0.004,
        stop_s=0.008,
        link_ids=[link_id],
    )
    scenario.run(until=0.012)
    pipe, _ = emulation.pipes_of_link(link_id)
    assert pipe.latency_s == pytest.approx(0.005)
