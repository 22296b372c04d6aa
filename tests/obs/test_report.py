"""collect_metrics over a live emulation + RunReport serialization."""

import pytest

from repro.apps.netperf import TcpStream
from repro.core import DistillationMode, EmulationConfig, ExperimentPipeline
from repro.core.tracelog import TraceLog
from repro.engine import Simulator
from repro.obs import MetricsRegistry, RunReport, build_report, collect_metrics
from repro.obs.report import RunStats
from repro.topology import dumbbell_topology


def _run_emulation(registry=None, until=2.0):
    sim = Simulator()
    emulation = (
        ExperimentPipeline(sim, seed=1)
        .create(dumbbell_topology(clients_per_side=3))
        .distill(DistillationMode.HOP_BY_HOP)
        .assign(2)
        .bind(2)
        .run(EmulationConfig(), registry=registry)
    )
    streams = [TcpStream(emulation, 0, 3), TcpStream(emulation, 1, 4)]
    sim.run(until=until)
    return emulation, streams


def test_collect_consolidates_every_subsystem():
    emulation, _ = _run_emulation()
    registry = MetricsRegistry()
    collect_metrics(emulation, registry)
    flat = registry.snapshot()
    # Scheduler / core series per core.
    for core in (0, 1):
        assert flat[f"sched.wakeups{{core={core}}}"] > 0
        assert f"sched.heap_depth{{core={core}}}" in flat
        assert 0.0 <= flat[f"core.utilization{{core={core}}}"] <= 1.0
    # Pipe taxonomy.
    assert flat["pipe.arrivals"] > 0
    for key in ("pipe.drops_overflow", "pipe.drops_random", "pipe.drops_down",
                "pipe.peak_backlog", "pipe.bytes_through"):
        assert key in flat
    # Accuracy & drops.
    assert flat["accuracy.packets_delivered"] > 0
    assert flat["accuracy.packets_entered"] >= flat["accuracy.packets_delivered"]
    assert "accuracy.mean_error_s" in flat
    assert "accuracy.physical_drops_uplink" in flat
    # TCP counters aggregated across stacks (live + closed).
    assert flat["tcp.segments_sent"] > 0
    assert "tcp.segments_retransmitted" in flat
    # Edge + sim.
    assert flat["edge.uplink_bytes"] > 0
    assert flat["sim.virtual_time_s"] == pytest.approx(2.0)


def test_collect_is_idempotent():
    emulation, _ = _run_emulation()
    registry = MetricsRegistry()
    collect_metrics(emulation, registry)
    first = registry.snapshot()
    collect_metrics(emulation, registry)
    assert registry.snapshot() == first


def test_live_registry_arms_timing_hooks():
    registry = MetricsRegistry()
    emulation, _ = _run_emulation(registry=registry)
    collect_metrics(emulation, registry)
    flat = registry.snapshot()
    assert flat["pipe.enqueue_s"]["count"] > 0
    assert flat["sched.collect_s{core=0}"]["count"] > 0
    assert flat["route.lookup_s"]["count"] > 0


def test_null_registry_leaves_hot_paths_unarmed():
    emulation, _ = _run_emulation(registry=None)
    assert emulation.pipes.built()
    assert all(pipe._timer is None for pipe in emulation.pipes.built())
    assert all(
        core.scheduler.collect_timer is None for core in emulation.cores
    )
    # A report is still complete via pull collection.
    report = emulation.run_report(name="unobserved")
    assert report.metric("pipe.arrivals") > 0
    assert report.metric("accuracy.packets_delivered") > 0


def test_run_stats_merge_rules():
    """Counters sum, labelled series union, peaks take the maximum,
    the clock the minimum, shared values come from the first part, and
    error samples concatenate up to ``max_samples``."""
    parts = []
    for index, (clock, peak, samples) in enumerate(
        [(2.0, 7, [0.1, 0.2]), (1.5, 9, [0.3, 0.4])]
    ):
        part = RunStats(
            virtual_time_s=clock,
            error_samples=samples,
            max_samples=3,
            fault_events=[{"part": index}],
        )
        part.put("pipe.arrivals", 10 + index)
        part.put("pipe.peak_backlog", peak)
        part.put("sched.wakeups", 5 + index, core=index)
        part.put("engine.epochs", 40 + index)
        parts.append(part)
    merged = RunStats.merge(parts)
    assert merged.virtual_time_s == 1.5
    assert merged.error_samples == [0.1, 0.2, 0.3]
    assert merged.fault_events == [{"part": 0}]
    flat = merged.publish(MetricsRegistry()).snapshot()
    assert flat["pipe.arrivals"] == 21
    assert flat["pipe.peak_backlog"] == 9
    assert flat["sched.wakeups{core=0}"] == 5
    assert flat["sched.wakeups{core=1}"] == 6
    assert flat["engine.epochs"] == 40
    assert flat["accuracy.error_samples"] == 3
    assert flat["accuracy.max_error_s"] == 0.3


def test_run_report_json_round_trip(tmp_path):
    emulation, _ = _run_emulation()
    report = build_report(emulation, name="round-trip", wall_time_s=1.25)
    clone = RunReport.from_json(report.to_json())
    assert clone.to_dict() == report.to_dict()
    path = tmp_path / "report.json"
    report.save(str(path))
    loaded = RunReport.load(str(path))
    assert loaded.to_dict() == report.to_dict()
    assert loaded.name == "round-trip"
    assert loaded.wall_time_s == 1.25
    assert loaded.topology["pipes"] == len(emulation.pipes)
    assert loaded.topology["cores"] == 2


def test_run_report_csv_flattens_histograms():
    emulation, _ = _run_emulation(registry=MetricsRegistry())
    report = build_report(emulation, name="csv")
    text = report.to_csv()
    lines = text.splitlines()
    assert lines[0] == "metric,value"
    assert any(line.startswith("pipe.arrivals,") for line in lines)
    assert any(line.startswith("pipe.enqueue_s.p99,") for line in lines)


def test_metric_sum_aggregates_labeled_series():
    emulation, _ = _run_emulation()
    report = build_report(emulation)
    total = report.metric_sum("sched.wakeups")
    per_core = [
        report.metric(f"sched.wakeups{{core={c}}}") for c in (0, 1)
    ]
    assert total == pytest.approx(sum(per_core))
    assert total > 0


def test_tracelog_export():
    sim = Simulator()
    emulation = (
        ExperimentPipeline(sim, seed=1)
        .create(dumbbell_topology(clients_per_side=2))
        .distill(DistillationMode.HOP_BY_HOP)
        .assign(1)
        .bind(1)
        .run(EmulationConfig())
    )
    log = TraceLog()
    log.attach(emulation)
    TcpStream(emulation, 0, 2)
    sim.run(until=1.0)
    registry = MetricsRegistry()
    log.export(registry)
    flat = registry.snapshot()
    assert flat["trace.emitted"] > 0
    assert flat["trace.error_s"]["count"] > 0


def test_reports_from_same_seed_are_identical_manifests():
    """created_at stays None in memory, so two same-seed runs produce
    byte-identical JSON — the determinism sanitizer's contract."""
    emulation_a, _ = _run_emulation()
    emulation_b, _ = _run_emulation()
    report_a = build_report(emulation_a, name="twin")
    report_b = build_report(emulation_b, name="twin")
    assert report_a.created_at is None
    # Wall-clock phase timings differ per run; everything else must not.
    dict_a, dict_b = report_a.to_dict(), report_b.to_dict()
    for d in (dict_a, dict_b):
        d["wall_time_s"] = 0.0
        d["metrics"] = {
            k: v for k, v in d["metrics"].items() if not k.startswith("phase.")
        }
    assert dict_a == dict_b


def test_save_stamps_created_at_once(tmp_path):
    emulation, _ = _run_emulation()
    report = build_report(emulation, name="stamped")
    assert report.created_at is None
    path = tmp_path / "r.json"
    report.save(str(path))
    first_stamp = report.created_at
    assert first_stamp is not None and first_stamp > 0
    report.save(str(path))  # second save keeps the original stamp
    assert report.created_at == first_stamp
    assert RunReport.load(str(path)).created_at == first_stamp


def test_explicit_created_at_round_trips():
    emulation, _ = _run_emulation()
    report = build_report(emulation, created_at=123.5)
    assert report.created_at == 123.5
    assert RunReport.from_json(report.to_json()).created_at == 123.5


def test_labels_survive_json_round_trip():
    emulation, _ = _run_emulation()
    report = build_report(emulation, name="labeled", wall_time_s=0.5)
    report.labels = {"suite": "smoke", "run_id": "seed=1-abc", "seed": 1}
    clone = RunReport.from_json(report.to_json())
    assert clone.labels == report.labels
    # Pre-labels reports (older files) load with empty labels.
    legacy = dict(report.to_dict())
    del legacy["labels"]
    assert RunReport.from_dict(legacy).labels == {}
