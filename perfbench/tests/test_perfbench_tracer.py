"""Span aggregation, dispatch counting and wrapper removal."""

import functools

import pytest

from tracer import (
    PARENT_PROBES,
    RUN_PROBES,
    SETUP_PROBES,
    DispatchCounter,
    Tracer,
    _resolve,
)
from layers import RUN_LAYERS
from perlayer import layer_self
from workloads import WORKLOADS


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def _nested(t, clock):
    """engine.run -> core.ingress -> core.pipe_arrival, then net.tcp."""
    arrival = t.wrap(lambda: clock.advance(0.5), "core.pipe_arrival")

    def ingress_body():
        clock.advance(2.0)
        arrival()
        clock.advance(0.25)

    ingress = t.wrap(ingress_body, "core.ingress")
    tcp = t.wrap(lambda: clock.advance(3.0), "net.tcp")

    def run_body():
        clock.advance(1.0)
        ingress()
        clock.advance(1.0)
        tcp()

    return t.wrap(run_body, "engine.run")


def test_self_time_subtracts_nested_children():
    clock = FakeClock()
    t = Tracer(clock=clock)
    _nested(t, clock)()
    stats = t.stats()
    assert stats["engine.run"]["total_s"] == pytest.approx(7.75)
    assert stats["engine.run"]["self_s"] == pytest.approx(2.0)
    assert stats["core.ingress"]["total_s"] == pytest.approx(2.75)
    assert stats["core.ingress"]["self_s"] == pytest.approx(2.25)
    assert stats["core.pipe_arrival"]["self_s"] == pytest.approx(0.5)
    assert stats["net.tcp"]["self_s"] == pytest.approx(3.0)
    # Self times account for the root span's wall exactly.
    assert sum(s["self_s"] for s in stats.values()) == pytest.approx(7.75)
    assert layer_self(stats) == pytest.approx({
        **{layer: 0.0 for layer in RUN_LAYERS},
        "engine": 2.0, "core": 2.75, "net": 3.0,
    })


def test_spans_record_parents_and_stay_bounded():
    clock = FakeClock()
    t = Tracer(run_id="r", clock=clock, sample_limit=3)
    _nested(t, clock)()
    assert t.stats()["engine.run"]["calls"] == 1
    assert len(t.samples) == 3
    by_name = {s["name"]: s for s in t.samples}
    assert by_name["core.ingress"]["parent"] == 1  # the engine.run span
    assert by_name["core.pipe_arrival"]["parent"] == by_name["core.ingress"]["id"]
    assert all(s["run"] == "r" for s in t.samples)


def test_wrapper_records_span_even_when_call_raises():
    clock = FakeClock()
    t = Tracer(clock=clock)

    def boom():
        clock.advance(1.0)
        raise ValueError("x")

    wrapped = t.wrap(boom, "routing.route")
    with pytest.raises(ValueError):
        wrapped()
    assert t.stats()["routing.route"]["calls"] == 1
    assert t._stack == []


def test_dispatch_counter_maps_callbacks_to_layers():
    from repro.hardware.links import PhysicalLink
    from repro.net.tcp import TcpConnection

    counter = DispatchCounter()
    counter(None, PhysicalLink.send)
    counter(None, functools.partial(TcpConnection.send))
    counter(None, len)  # builtins belong to no layer
    assert counter.by_layer == {"hardware": 1, "net": 1, "unmapped": 1}


def _originals(probes):
    return [
        (probe, vars(_resolve(probe.owner)).get(probe.attr))
        for probe in probes
    ]


@pytest.mark.parametrize("probes", [SETUP_PROBES + RUN_PROBES, SETUP_PROBES + PARENT_PROBES])
def test_wrappers_fully_removed_after_traced_run(probes):
    before = _originals(probes)
    t = Tracer().install(probes)
    try:
        workload = WORKLOADS["dumbbell_tcp"]
        scenario = workload.scenario(workload.make_inputs(1), "measured")
        scenario.build()
        scenario.sim.on_dispatch = DispatchCounter()
        scenario.run(until=0.5)
        scenario.sim.on_dispatch = None
    finally:
        t.uninstall()
    assert _originals(probes) == before
    for probe, original in before:
        current = getattr(_resolve(probe.owner), probe.attr)
        assert not getattr(current, "__wrapped_by_perfbench__", False), probe
    if probes[-1] in RUN_PROBES:
        assert t.stats()["core.collect"]["calls"] > 0


def test_install_refuses_double_wrapping():
    t = Tracer().install(SETUP_PROBES[:1])
    try:
        with pytest.raises(RuntimeError):
            Tracer().install(SETUP_PROBES[:1])
    finally:
        t.uninstall()
    assert not getattr(
        _resolve(SETUP_PROBES[0].owner).build, "__wrapped_by_perfbench__", False
    )


def test_every_probe_target_exists():
    for probe in SETUP_PROBES + RUN_PROBES + PARENT_PROBES:
        assert callable(getattr(_resolve(probe.owner), probe.attr)), probe
        assert probe.span.split(".", 1)[0] in RUN_LAYERS, probe
