"""One run driver on every backend.

``Scenario.run`` drives serial (one domain or partitioned) and
multiprocess (one or more workers) runs through the same path. A plain
run and a supervised run of the same seeded scenario must do the same
work; the supervised run's ``run.digest`` must be the committed
sanitize baseline; and a plain run must never pay for a digest.
"""

import json
import pathlib

import pytest

from repro.api import Scenario

EXAMPLES = pathlib.Path(__file__).parent.parent.parent / "examples"
SEED = 1

#: name -> (topology, cores, domains, flows, seconds, backend, workers)
BACKENDS = {
    "serial-1domain": ("dumbbell", 1, None, 4, 1.0, "serial", None),
    "serial-4domains": ("ring8x2", 4, 4, 8, 0.2, "serial", None),
    "multiprocess-1worker": ("ring8x2", 4, 4, 8, 0.2, "multiprocess", 1),
    "multiprocess-2workers": ("ring8x2", 4, 4, 8, 0.2, "multiprocess", 2),
}

#: Supervision variants: bare ``.resilience()`` observes no barrier;
#: an (unreachable) event budget makes every barrier call the hook.
SUPERVISED = {"supervised": {}, "budgeted": {"max_events": 10**9}}

COUNTS = (
    "accuracy.packets_delivered",
    "accuracy.virtual_drops",
    "accuracy.physical_drops",
    "sim.events_dispatched",
)


def _scenario(backend):
    topology, cores, domains, flows, _, name, workers = BACKENDS[backend]
    return (
        Scenario.from_gml(str(EXAMPLES / f"{topology}.gml"))
        .distill("hop-by-hop", walk_in=1)
        .assign(cores)
        .netperf(flows=flows)
        .observe(False)
        .seed(SEED)
        .backend(name, domains=domains, workers=workers)
    )


def _committed(topology):
    with open(EXAMPLES / f"{topology}.digests.json") as handle:
        return json.load(handle)[str(SEED)]


@pytest.mark.parametrize("backend", sorted(BACKENDS))
def test_plain_and_supervised_runs_agree(backend):
    topology, seconds = BACKENDS[backend][0], BACKENDS[backend][4]

    plain = _scenario(backend)
    plain_report = plain.run(until=seconds)
    assert all(d.digest_hexdigest() is None for d in plain._domains())
    assert "run.digest" not in plain_report.metrics
    multiprocess = BACKENDS[backend][5] == "multiprocess"
    assert (plain.mp_result is not None) == multiprocess

    for variant, knobs in SUPERVISED.items():
        supervised = _scenario(backend).resilience(**knobs)
        report = supervised.run(until=seconds)
        for key in COUNTS:
            assert report.metrics[key] == plain_report.metrics[key], (
                variant, key,
            )
        assert report.metrics["run.outcome"] == "completed"
        assert report.metrics["run.digest"] == _committed(topology), variant
        assert (
            report.metrics["run.events"]
            == plain_report.metrics["sim.events_dispatched"]
        )


def test_supervised_single_worker_run_outlasts_its_epoch_timeout():
    """The epoch timeout bounds one epoch, not the run: a supervised
    one-worker run longer than the timeout stays on the per-epoch loop
    and completes without a retry or a downgrade."""
    scenario = _scenario("multiprocess-1worker").resilience(epoch_timeout=0.3)
    report = scenario.run(until=2.0)
    assert report.metrics["run.outcome"] == "completed"
    assert report.metrics["resilience.retries"] == 0
    assert report.metrics["resilience.downgrades"] == 0
    assert scenario.mp_result.workers == 1
