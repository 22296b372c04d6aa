"""End-to-end tests for the partitioned engine: serial-partitioned
determinism, multiprocess digest invariance, spec round-trips, and the
report fields that attribute per-domain load."""

from pathlib import Path

import pytest

from repro.api import Scenario
from repro.check.sanitize import SimSanitizer, compose_domain_digests
from repro.engine import PartitionedSimulator
from repro.faults import FaultPlan
from repro.topology import ring_topology

UNTIL = 0.05
EXAMPLES = Path(__file__).resolve().parents[2] / "examples"


def _ring_scenario(backend="serial", domains=4, workers=None, seed=7):
    return (
        Scenario(
            ring_topology(num_routers=8, vns_per_router=2), name="ring8"
        )
        .distill("hop-by-hop")
        .assign(4)
        .seed(seed)
        .netperf(flows=8)
        .observe(False)
        .backend(backend, domains=domains, workers=workers)
    )


def _ring8x2(fault_plan=None, backend="serial", workers=None):
    """The committed ring8x2 example as the CLI runs it (4 cores and
    domains, 8 flows, seed 1), observed."""
    scenario = (
        Scenario.from_gml(str(EXAMPLES / "ring8x2.gml"))
        .distill("hop-by-hop")
        .assign(4)
        .seed(1)
        .netperf(flows=8)
        .backend(backend, domains=4, workers=workers)
    )
    if fault_plan is not None:
        scenario.faults(FaultPlan.from_json_file(str(EXAMPLES / fault_plan)))
    return scenario


#: Report metrics a multiprocess run need not reproduce.
_NOT_COMPARED = (
    # Wall-clock cost of the multiprocess backend itself.
    "parallel.",
    # Wall-clock build and run phases.
    "phase.",
    # Workload handles' derived values (goodput, flow counts): only a
    # run whose traffic ran in this process reports them.
    "traffic.",
    # Route-search work per process: every worker repeats the reroutes
    # the serial run does once.
    "routing.",
)
#: Hot-path timers: their values are wall clock; only the number of
#: observations is deterministic.
_WALL_CLOCK_TIMERS = ("pipe.enqueue_s", "route.lookup_s", "sched.collect_s")


def _comparable(metrics):
    return {
        key: value
        for key, value in metrics.items()
        if not key.startswith(_NOT_COMPARED)
    }


def _assert_merged_report_matches(multi, serial):
    """A multiprocess report is the serial-partitioned report: the same
    metric keys with the same values, save the named exceptions.
    Returns the multiprocess report's compared metrics."""
    assert multi.config["backend"] == "multiprocess"
    assert multi.topology == serial.topology
    expected = _comparable(serial.metrics)
    merged = _comparable(multi.metrics)
    assert merged.keys() == expected.keys()
    for key, value in expected.items():
        if key.split("{", 1)[0] in _WALL_CLOCK_TIMERS:
            assert merged[key]["count"] == value["count"], key
        else:
            assert merged[key] == value, key
    return merged


def _digest(scenario, until=UNTIL):
    scenario.build()
    sanitizer = SimSanitizer().attach(scenario.sim)
    try:
        scenario.run(until=until)
    finally:
        sanitizer.detach()
    return sanitizer.digest, sanitizer.dispatched


def test_serial_partitioned_builds_partitioned_simulator():
    scenario = _ring_scenario()
    emulation = scenario.build()
    assert isinstance(scenario.sim, PartitionedSimulator)
    assert emulation.num_domains == 4
    # Bind-time derivation replaces the uniform calibration floor with
    # per-pair bounds from the actual cross-domain pipe latencies, so
    # the effective lookahead is at least pipe latency + floor.
    floor = emulation.config.core_spec.switch_latency_s
    matrix = scenario.sim.matrix
    assert scenario.sim.lookahead == matrix.effective > floor
    assert matrix.widest >= matrix.effective
    for src, dst, bound in matrix.items():
        assert bound >= floor
    # Every core is bound to the domain the assignment dictates.
    for core in emulation.cores:
        assert core.sim is emulation.domains[core.domain_id]


def test_serial_partitioned_is_deterministic():
    first, events_1 = _digest(_ring_scenario())
    second, events_2 = _digest(_ring_scenario())
    assert first == second
    assert events_1 == events_2 > 0


def test_partitioned_sanitizer_composes_domain_digests():
    scenario = _ring_scenario()
    scenario.build()
    sanitizer = SimSanitizer().attach(scenario.sim)
    try:
        scenario.run(until=UNTIL)
    finally:
        sanitizer.detach()
    per_domain = sanitizer.domain_digests()
    assert sorted(per_domain) == [0, 1, 2, 3]
    assert sanitizer.digest == compose_domain_digests(per_domain)
    # The merged record stream covers every domain's events.
    assert len(sanitizer.records) == sanitizer.dispatched


def test_domain_count_changes_schedule_but_not_tcp_outcome():
    """Partitioning changes event interleaving (each domain has its
    own seq counter) but must not change what the network *does*: the
    cross-domain wire and the single-domain egress link model the same
    switch hop, so TCP sees the same path."""
    single = _ring_scenario(domains=1)
    single_report = single.run(until=0.2)
    multi = _ring_scenario(domains=4)
    multi_report = multi.run(until=0.2)
    assert multi_report.metrics["tcp.bytes_received"] == pytest.approx(
        single_report.metrics["tcp.bytes_received"], rel=0.15
    )
    assert (
        multi_report.metrics["accuracy.packets_delivered"]
        == pytest.approx(
            single_report.metrics["accuracy.packets_delivered"], rel=0.15
        )
    )


def test_report_attributes_domains():
    report = _ring_scenario().observe(True).run(until=UNTIL)
    metrics = report.metrics
    assert report.config["backend"] == "serial"
    assert report.config["num_domains"] == 4
    assert metrics["engine.num_domains"] == 4
    assert metrics["engine.epochs"] > 0
    # Effective (tightest) pairwise bound, plus the per-pair
    # breakdown the scalar used to hide (satellite: lookahead
    # under-reporting fix).
    assert metrics["engine.lookahead_s"] > 20e-6
    assert metrics["engine.lookahead_widest_s"] >= metrics["engine.lookahead_s"]
    pair_gauges = [k for k in metrics if k.startswith("engine.lookahead_pair_s")]
    assert pair_gauges, "per-pair lookahead gauges missing"
    assert all(metrics[k] >= 20e-6 for k in pair_gauges)
    per_domain = [
        metrics[f"sim.events_dispatched{{domain={d}}}"] for d in range(4)
    ]
    assert sum(per_domain) == metrics["sim.events_dispatched"]
    # Core gauges carry their domain label for imbalance attribution.
    assert "sched.wakeups{core=0,domain=0}" in metrics
    assert "core.packets_processed{core=0,domain=0}" in metrics


def test_partitioned_requires_physical_model():
    scenario = _ring_scenario().config(model_physical=False)
    with pytest.raises(ValueError, match="model_physical"):
        scenario.build()


class TestMultiprocess:
    def test_digests_invariant_across_worker_counts_and_runs(self):
        from repro.engine.parallel import run_multiprocess

        digests = []
        events = []
        for workers in (1, 2, 4, 2):  # repeat w=2: run-to-run check
            scenario = _ring_scenario("multiprocess")
            scenario.build()
            result = run_multiprocess(
                scenario, until=UNTIL, workers=workers
            )
            digests.append(result.composed_digest)
            events.append(result.events_dispatched)
        assert len(set(digests)) == 1
        assert len(set(events)) == 1

    def test_multiprocess_matches_serial_partitioned_digest(self):
        from repro.engine.parallel import run_multiprocess

        serial_digest, serial_events = _digest(_ring_scenario())
        scenario = _ring_scenario("multiprocess")
        scenario.build()
        result = run_multiprocess(
            scenario, until=UNTIL, workers=2
        )
        assert result.composed_digest == serial_digest
        assert result.events_dispatched == serial_events

    @pytest.mark.parametrize(
        "fault_plan", [None, "faultplan.json"], ids=["no_faults", "faultplan"]
    )
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_scenario_run_merges_worker_stats(self, workers, fault_plan):
        """A multiprocess report is the serial-partitioned report: the
        same metric keys with the same values, save the named
        exceptions."""
        serial = _ring8x2(fault_plan).run(until=0.2)
        multi = _ring8x2(fault_plan, "multiprocess", workers).run(until=0.2)
        assert multi.virtual_time_s == serial.virtual_time_s == 0.2
        assert multi.fault_events == serial.fault_events
        assert bool(multi.fault_events) == (fault_plan is not None)
        merged = _assert_merged_report_matches(multi, serial)
        assert merged["tcp.connections"] > 0
        assert merged["engine.messages_routed"] > 0

    @pytest.mark.parametrize("workers", [2, 3])
    def test_run_ending_mid_route_merges_worker_stats(self, workers):
        """Every flow starts just before the run ends, so descriptors
        are still in flight on routes that cross domains. The ingress
        process built those whole routes; other processes built only
        what reached them. The pipe gauges must not tell the backends
        apart."""
        scenario = _ring8x2()
        serial = scenario.run(until=0.001)
        multi = _ring8x2(None, "multiprocess", workers).run(until=0.001)
        merged = _assert_merged_report_matches(multi, serial)
        assert merged["engine.messages_routed"] > 0
        # Some built pipes no packet reached yet: the case in question.
        built = len(scenario.emulation.pipes.built())
        assert 0 < merged["pipe.built"] < built

    def test_default_worker_count_is_capped_by_cpu_count(self):
        """workers=0 must not oversubscribe the machine: more workers
        than usable CPUs just adds context-switch chains at every
        barrier."""
        import os

        from repro.engine.parallel import run_multiprocess

        scenario = _ring_scenario("multiprocess")
        scenario.build()
        result = run_multiprocess(
            scenario, until=UNTIL, workers=0
        )
        usable = (
            len(os.sched_getaffinity(0))
            if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1
        )
        assert result.workers == max(1, min(4, usable))
        # The capped run keeps the digest contract with the serial
        # executor regardless of which path (fast or epoch) it took.
        serial_digest, serial_events = _digest(_ring_scenario())
        assert result.composed_digest == serial_digest
        assert result.events_dispatched == serial_events

    def test_default_worker_count_follows_cpu_affinity(self, monkeypatch):
        """Under taskset or a cpuset the process may use fewer CPUs
        than the machine has; the default pool must fit the mask."""
        import os

        from repro.engine.parallel import run_multiprocess

        monkeypatch.setattr(
            os, "sched_getaffinity", lambda pid: {0}, raising=False
        )
        scenario = _ring_scenario("multiprocess")
        scenario.build()
        result = run_multiprocess(scenario, until=UNTIL, workers=0)
        assert result.workers == 1

    def test_custom_traffic_rejected(self):
        scenario = _ring_scenario("multiprocess")
        scenario.traffic(lambda emulation: None)
        with pytest.raises(ValueError, match="declarative traffic"):
            scenario.to_spec()


def test_spec_round_trip_reproduces_digest():
    scenario = _ring_scenario()
    spec = scenario.to_spec()
    clone = Scenario.from_spec(spec)
    original, events_orig = _digest(scenario)
    cloned, events_clone = _digest(clone)
    assert cloned == original
    assert events_clone == events_orig
