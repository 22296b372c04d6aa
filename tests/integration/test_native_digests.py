"""The native digest fold is the run digest on every run path.

A resilient serial run reports as ``run.digest`` exactly what
``repro-net sanitize`` hashes (the committed baselines), single-domain
and partitioned, and multiprocess workers stream the same per-domain
digests the serial-partitioned engine folds in-process.
"""

import json
import pathlib

from repro.api import Scenario
from repro.engine.parallel import run_multiprocess

EXAMPLES = pathlib.Path(__file__).parent.parent.parent / "examples"
SEED = 1


def _scenario(name, cores, flows, backend="serial", domains=None):
    return (
        Scenario.from_gml(str(EXAMPLES / f"{name}.gml"))
        .distill("hop-by-hop", walk_in=1)
        .assign(cores)
        .netperf(flows=flows)
        .observe(False)
        .seed(SEED)
        .backend(backend, domains=domains)
    )


def _committed(name):
    with open(EXAMPLES / f"{name}.digests.json") as handle:
        return json.load(handle)[str(SEED)]


def test_native_digests_match_sanitize_and_multiprocess():
    # Resilient serial runs: the sanitize CLI's scenarios and horizons.
    for name, cores, domains, flows, seconds in (
        ("dumbbell", 1, None, 4, 1.0),
        ("ring8x2", 4, 4, 8, 0.2),
    ):
        scenario = _scenario(name, cores, flows, domains=domains).resilience()
        report = scenario.run(until=seconds)
        assert report.metrics["run.outcome"] == "completed"
        assert report.metrics["run.digest"] == _committed(name), name
        assert report.metrics["run.events"] == scenario.sim.events_dispatched

    # Serial-partitioned native folds vs 2 multiprocess workers.
    serial = _scenario("ring8x2", 4, 8, domains=4)
    serial.build()
    for domain in serial.sim.domains:
        domain.enable_digest()
    serial.sim.run(until=0.2)
    expected = {d.domain_id: d.digest_hexdigest() for d in serial.sim.domains}
    counts = {d.domain_id: d.events_dispatched for d in serial.sim.domains}

    mp = _scenario("ring8x2", 4, 8, backend="multiprocess", domains=4)
    mp.build()
    result = run_multiprocess(mp, until=0.2, workers=2)
    assert result.workers == 2
    assert result.domain_digests == expected
    assert result.domain_digest_events == counts
