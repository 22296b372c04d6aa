"""Tests for the netperf-style load generators."""

import pytest

from repro.apps import ComputePerByteSender, TcpStream, UdpCbrSource, UdpSink
from repro.core import EmulationConfig, ExperimentPipeline
from repro.engine import Simulator
from repro.topology import chain_topology, star_topology


def test_tcp_stream_saturates_pipe():
    sim = Simulator()
    emulation = (
        ExperimentPipeline(sim)
        .create(chain_topology(1, hops=1, bandwidth_bps=10e6, latency_s=0.010))
        .run(EmulationConfig.reference())
    )
    stream = TcpStream(emulation, 0, 1)
    sim.run(until=2.0)
    stream.mark()
    sim.run(until=6.0)
    goodput = stream.throughput_bps()
    # 10 Mb/s wire rate minus header overhead: ~9.5 Mb/s of goodput.
    assert goodput == pytest.approx(9.5e6, rel=0.08)


def test_tcp_stream_stop_halts_transfer():
    sim = Simulator()
    emulation = (
        ExperimentPipeline(sim)
        .create(chain_topology(1, hops=1, bandwidth_bps=10e6, latency_s=0.010))
        .run(EmulationConfig.reference())
    )
    stream = TcpStream(emulation, 0, 1)
    sim.run(until=1.0)
    stream.stop()
    sim.run(until=2.0)
    at_stop = stream.bytes_received
    sim.run(until=4.0)
    assert stream.bytes_received <= at_stop + TcpStream.CHUNK


def test_tcp_stream_deferred_start():
    sim = Simulator()
    emulation = (
        ExperimentPipeline(sim)
        .create(chain_topology(1, hops=1, bandwidth_bps=10e6, latency_s=0.010))
        .run(EmulationConfig.reference())
    )
    stream = TcpStream(emulation, 0, 1, start_at=1.0)
    sim.run(until=0.9)
    assert stream.bytes_received == 0
    sim.run(until=3.0)
    assert stream.bytes_received > 0


def test_udp_cbr_rate(star_emulation):
    sim, emulation = star_emulation
    sink = UdpSink(emulation.vn(1))
    source = UdpCbrSource(
        emulation.vn(0), 1, rate_bps=1e6, packet_bytes=1000, stop_at=2.0
    )
    sim.run(until=3.0)
    # 1 Mb/s for 2 s = 250 packets of 1000 B.
    assert source.sent == pytest.approx(250, abs=2)
    assert sink.bytes_received == pytest.approx(250_000, rel=0.02)


def test_udp_cbr_validation(star_emulation):
    sim, emulation = star_emulation
    with pytest.raises(ValueError):
        UdpCbrSource(emulation.vn(0), 1, rate_bps=0)


def test_compute_sender_requires_cpu_model(star_emulation):
    sim, emulation = star_emulation
    with pytest.raises(RuntimeError):
        ComputePerByteSender(emulation.vn(0), 1, 10.0)


def test_compute_sender_rate_limited_by_cpu():
    sim = Simulator()
    emulation = (
        ExperimentPipeline(sim)
        .create(star_topology(2, bandwidth_bps=100e6, latency_s=0.001))
        .bind(num_hosts=2, strategy="round_robin")
        .run(EmulationConfig(model_edge_cpu=True))
    )
    # Sender and sink sit on separate hosts, so each CPU runs one VN.
    assert len(emulation.hosts) == 2
    sink = UdpSink(emulation.vn(1))
    sender = ComputePerByteSender(emulation.vn(0), 1, instructions_per_byte=200.0)
    sim.run(until=1.0)
    sender.stop()
    # 200 i/B * 1500 B = 300k instructions = 300 us/packet (plus the
    # 12 us stack cost) -> ~3200 packets/s.
    assert 2500 < sender.sent < 3400


def test_pareto_onoff_duty_cycle(star_emulation):
    import random as _random

    from repro.apps import ParetoOnOffSource

    sim, emulation = star_emulation
    sink = UdpSink(emulation.vn(1))
    source = ParetoOnOffSource(
        emulation.vn(0),
        1,
        peak_rate_bps=2e6,
        mean_on_s=0.5,
        mean_off_s=0.5,
        rng=_random.Random(4),
        stop_at=20.0,
    )
    sim.run(until=25.0)
    # ~50% duty cycle at 2 Mb/s peak: mean rate in a broad band
    # around 1 Mb/s (Pareto tails make this noisy by design).
    mean_rate = sink.bytes_received * 8 / 20.0
    assert 0.3e6 < mean_rate < 1.8e6
    assert source.bursts > 3


def test_pareto_onoff_is_bursty(star_emulation):
    """The signature property: per-interval rates vary far more than
    a CBR source's."""
    import random as _random

    from repro.apps import ParetoOnOffSource

    sim, emulation = star_emulation
    sink = UdpSink(emulation.vn(1))
    ParetoOnOffSource(
        emulation.vn(0), 1, peak_rate_bps=2e6,
        rng=_random.Random(9), stop_at=30.0,
    )
    samples = []
    last = [0]

    def sample():
        samples.append(sink.bytes_received - last[0])
        last[0] = sink.bytes_received
        if sim.now < 30.0:
            sim.schedule(0.25, sample)

    sim.schedule(0.25, sample)
    sim.run(until=31.0)
    assert samples.count(0) > 3  # real idle periods
    mean = sum(samples) / len(samples)
    variance = sum((s - mean) ** 2 for s in samples) / len(samples)
    # On/off alternation: coefficient of variation near 1, far above
    # a CBR source's ~0.
    assert variance**0.5 > 0.5 * mean


def test_pareto_validation(star_emulation):
    from repro.apps import ParetoOnOffSource

    sim, emulation = star_emulation
    with pytest.raises(ValueError):
        ParetoOnOffSource(emulation.vn(0), 1, peak_rate_bps=0)
    with pytest.raises(ValueError):
        ParetoOnOffSource(emulation.vn(0), 1, peak_rate_bps=1e6, shape=0.9)
