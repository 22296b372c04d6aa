"""MetricsRegistry / NullRegistry semantics."""

import pytest

from repro.obs import MetricsRegistry, NullRegistry, NULL_REGISTRY
from repro.obs.metrics import Histogram


def test_counter_identity_and_increment():
    obs = MetricsRegistry()
    c = obs.counter("pipe.drops_overflow")
    c.inc()
    c.inc(4)
    assert obs.counter("pipe.drops_overflow") is c
    assert c.value == 5


def test_counter_rejects_negative():
    with pytest.raises(ValueError):
        MetricsRegistry().counter("x").inc(-1)


def test_labels_make_distinct_metrics():
    obs = MetricsRegistry()
    a = obs.counter("sched.wakeups", core=0)
    b = obs.counter("sched.wakeups", core=1)
    assert a is not b
    a.inc()
    assert b.value == 0
    # Label order does not matter for identity.
    assert obs.counter("m", a=1, b=2) is obs.counter("m", b=2, a=1)


def test_kind_collision_rejected():
    obs = MetricsRegistry()
    obs.counter("x")
    with pytest.raises(ValueError, match="already registered"):
        obs.gauge("x")


def test_gauge_set_and_add():
    g = MetricsRegistry().gauge("core.utilization")
    g.set(0.5)
    g.add(0.25)
    assert g.value == pytest.approx(0.75)


def test_histogram_summary_statistics():
    h = MetricsRegistry().histogram("err")
    for v in [1.0, 2.0, 3.0, 4.0, 100.0]:
        h.observe(v)
    snap = h.snapshot()
    assert snap["count"] == 5
    assert snap["sum"] == pytest.approx(110.0)
    assert snap["min"] == 1.0
    assert snap["max"] == 100.0
    assert snap["mean"] == pytest.approx(22.0)
    assert h.percentile(0) == 1.0
    assert h.percentile(100) == 100.0


def test_histogram_reservoir_decimation_keeps_exact_aggregates():
    h = Histogram("x", max_samples=64)
    for i in range(10_000):
        h.observe(float(i))
    assert h.count == 10_000
    assert h.total == pytest.approx(sum(range(10_000)))
    assert h.min == 0.0 and h.max == 9999.0
    assert len(h._samples) <= 64
    # Percentiles remain representative of the whole stream.
    assert 3500 < h.percentile(50) < 6500


def test_histogram_merge_keeps_exact_aggregates_and_a_bounded_reservoir():
    a, b = Histogram("x", max_samples=64), Histogram("x", max_samples=64)
    for i in range(100):
        a.observe(float(i))
    for i in range(100, 250):
        b.observe(float(i))
    a.merge(b)
    assert a.count == 250
    assert a.total == pytest.approx(sum(range(250)))
    assert a.min == 0.0 and a.max == 249.0
    assert len(a._samples) <= 64
    assert 80 < a.percentile(50) < 170


def test_empty_histogram_snapshot():
    h = MetricsRegistry().histogram("empty")
    assert h.snapshot()["count"] == 0
    assert h.percentile(99) == 0.0


def test_timed_records_duration():
    obs = MetricsRegistry()
    with obs.timed("phase.x_s"):
        pass
    snap = obs.histogram("phase.x_s").snapshot()
    assert snap["count"] == 1
    assert snap["max"] >= 0.0


def test_snapshot_renders_labels_deterministically():
    obs = MetricsRegistry()
    obs.counter("c", core=1).inc(2)
    obs.gauge("g").set(1.5)
    obs.histogram("h").observe(3.0)
    flat = obs.snapshot()
    assert flat["c{core=1}"] == 2
    assert flat["g"] == 1.5
    assert flat["h"]["count"] == 1
    assert list(flat) == sorted(flat)


def test_null_registry_is_inert():
    obs = NullRegistry()
    assert not obs.enabled
    obs.counter("x").inc()
    obs.gauge("y").set(3)
    obs.histogram("z").observe(1.0)
    with obs.timed("t"):
        pass
    assert obs.snapshot() == {}
    assert obs.get("x") is None
    assert len(NULL_REGISTRY.snapshot()) == 0
