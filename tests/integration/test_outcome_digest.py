"""The outcome digest: one record per packet outcome, per domain.

It pins what the emulated network did (exits with their actual and
ideal times, virtual and physical drops with their reasons,
unroutable packets) apart from the event stream that did it, so it
must agree on every run path and backend, and ``--expect-digests``
checks it against the committed ``examples/*.digests.json``.
"""

import hashlib
import json
import pathlib
import random

from repro.api import Scenario
from repro.core import monitor
from repro.core.packet import PacketDescriptor
from repro.core.pipe import Pipe
from repro.engine import Simulator
from repro.engine.parallel import run_multiprocess
from repro.net.packet import Packet
from repro.tools.cli import main

EXAMPLES = pathlib.Path(__file__).parent.parent.parent / "examples"
SEED = 1


def _committed_outcome(name, seed=SEED):
    with open(EXAMPLES / f"{name}.digests.json") as handle:
        return json.load(handle)["outcomes"][str(seed)]


def _ring(backend="serial"):
    return (
        Scenario.from_gml(str(EXAMPLES / "ring8x2.gml"))
        .distill("hop-by-hop", walk_in=1)
        .assign(4)
        .netperf(flows=8)
        .observe(False)
        .seed(SEED)
        .backend(backend, domains=4)
    )


def test_outcome_digest_is_armed_with_the_event_digest():
    sim = Simulator()
    assert sim.outcomes is None and sim.outcome_hexdigest() is None
    sim.enable_digest()
    assert sim.outcome_hexdigest() == hashlib.sha256().hexdigest()


def test_resilient_run_reports_the_committed_outcome_digest():
    for name, scenario, seconds in (
        (
            "dumbbell",
            Scenario.from_gml(str(EXAMPLES / "dumbbell.gml"))
            .distill("hop-by-hop", walk_in=1)
            .assign(1)
            .netperf(flows=4)
            .observe(False)
            .seed(SEED),
            1.0,
        ),
        ("ring8x2", _ring(), 0.2),
    ):
        report = scenario.resilience().run(until=seconds)
        assert report.metrics["run.outcome_digest"] == _committed_outcome(name)


def test_multiprocess_workers_ship_the_serial_outcome_digests():
    serial = _ring()
    serial.build()
    for domain in serial.sim.domains:
        domain.enable_digest()
    serial.sim.run(until=0.2)
    expected = {d.domain_id: d.outcome_hexdigest() for d in serial.sim.domains}
    mp = _ring("multiprocess")
    mp.build()
    result = run_multiprocess(mp, until=0.2, workers=3)
    assert result.domain_outcomes == expected
    assert result.composed_outcome == _committed_outcome("ring8x2")


def _descriptor(src, created_at, size=1000):
    packet = Packet(src, 9, size, "udp", created_at=created_at)
    return PacketDescriptor(packet, (), 0, 0.0)


def test_pipe_refusals_name_their_reason():
    pipe = Pipe(0, 1e6, 0.0, loss_rate=0.5, queue_limit=1)
    rng = random.Random(3)
    reasons = set()
    for index in range(40):
        if not pipe.arrival(_descriptor(index, 0.0), 0.0, 0.0, rng):
            reasons.add(pipe.refusal)
    pipe.up = False
    assert not pipe.arrival(_descriptor(99, 0.0), 0.0, 0.0, rng)
    reasons.add(pipe.refusal)
    assert reasons == {monitor.DROP_RANDOM, monitor.DROP_OVERFLOW, monitor.DROP_DOWN}


def test_flush_folds_each_lost_packet_as_a_down_drop():
    pipe = Pipe(0, 1e6, 0.01, queue_limit=10)
    descriptors = [_descriptor(src, 0.5 * src) for src in range(3)]
    for descriptor in descriptors:
        assert pipe.arrival(descriptor, 0.0, 0.0)
    pipe.service(0.009)  # the first packet moves on to the delay line
    expected = hashlib.sha256()
    for descriptor in descriptors[1:] + descriptors[:1]:  # queue, then line
        monitor.record_outcome(expected, monitor.DROP_DOWN, descriptor.packet)
    outcomes = hashlib.sha256()
    assert pipe.flush(outcomes) == 3
    assert outcomes.hexdigest() == expected.hexdigest()


def test_expect_digests_fails_on_outcome_drift(tmp_path, capsys):
    baseline = json.loads((EXAMPLES / "dumbbell.digests.json").read_text())
    baseline["outcomes"][str(SEED)] = "0" * 64
    path = tmp_path / "drifted.digests.json"
    path.write_text(json.dumps(baseline))
    code = main([
        "sanitize", str(EXAMPLES / "dumbbell.gml"), "--seeds", str(SEED),
        "--seconds", "1.0", "--expect-digests", str(path),
    ])
    assert code == 1
    assert "OUTCOME DIGEST DRIFT" in capsys.readouterr().out
