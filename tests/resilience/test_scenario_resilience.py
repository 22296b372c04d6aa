"""End-to-end resilience tests over real scenarios and workers.

The acceptance properties from the issue, scaled down to CI size:

* SIGKILL of a multiprocess worker mid-run recovers with the composed
  digest byte-identical to the fault-free run, and under the committed
  fault plan with the committed digest;
* an interrupted + resumed run produces the same final digest and
  event count as an uninterrupted one (several seeds);
* budget exhaustion aborts cleanly with a partial report carrying
  ``run.outcome`` and every resilience counter;
* a persistent (nondeterministic) failure escalates and degrades to
  serial partitioned execution with the downgrade recorded;
* ``inject_fault`` survives the spec round trip into multiprocess
  workers, where the sanitizer must detect the divergence.
"""

import json
import pathlib
import signal

import pytest

from repro.api import Scenario
from repro.engine.parallel import run_multiprocess
from repro.resilience import (
    RetryPolicy,
    RunAborted,
    SupervisionEscalation,
    load_checkpoint,
)
from repro.faults import FaultPlan
from repro.topology import dumbbell_topology, ring_topology

EXAMPLES = pathlib.Path(__file__).parent.parent.parent / "examples"

RING_UNTIL = 0.02

COUNTERS = (
    "resilience.heartbeats_missed",
    "resilience.workers_restarted",
    "resilience.retries",
    "resilience.checkpoints_written",
    "resilience.downgrades",
)


def _ring_scenario(backend="serial", workers=None, seed=7):
    return (
        Scenario(
            ring_topology(num_routers=8, vns_per_router=2), name="res-ring8"
        )
        .distill("hop-by-hop")
        .assign(4)
        .seed(seed)
        .netperf(flows=8)
        .observe(False)
        .backend(backend, domains=4, workers=workers)
    )


def _dumbbell_scenario(seed=1, cores=1):
    return (
        Scenario.from_topology(dumbbell_topology(3), name="res-dumbbell")
        .distill("hop-by-hop")
        .assign(cores)
        .seed(seed)
        .netperf(flows=4)
        .observe(False)
    )


def _fast_retry(seed=0):
    return RetryPolicy(max_attempts=2, base_backoff_s=0.0, jitter=0.0, seed=seed)


# ----------------------------------------------------------------------
# SIGKILL recovery (the tentpole acceptance property)
# ----------------------------------------------------------------------

@pytest.mark.parametrize("workers", [1, 2])
def test_sigkill_recovery_reproduces_the_clean_digest(workers):
    clean_scenario = _ring_scenario("multiprocess", workers=workers)
    clean_scenario.build()
    clean = run_multiprocess(
        clean_scenario, until=RING_UNTIL, workers=workers
    )
    assert clean.epochs > 2

    chaos_scenario = _ring_scenario("multiprocess", workers=workers)
    chaos_scenario.build()
    chaos = run_multiprocess(
        chaos_scenario, until=RING_UNTIL, workers=workers,
        policy=_fast_retry(),
        chaos_kill=(max(1, clean.epochs // 2), 0),
    )
    assert chaos.workers_restarted >= 1
    assert chaos.composed_digest == clean.composed_digest
    assert chaos.events_dispatched == clean.events_dispatched
    assert chaos.outcome == "completed"


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("workers", [2, 4])
def test_sigkill_recovery_reproduces_the_committed_fault_plan_digest(
    workers, seed
):
    """The chaos gate: kill worker 0 mid-run through the committed
    fault plan; the restarted group must reproduce the committed
    sanitize event and outcome digests (``repro-net sanitize ...
    --fault-plan``)."""
    digests = json.loads((EXAMPLES / "faultplan.digests.json").read_text())
    scenario = (
        Scenario.from_gml(str(EXAMPLES / "ring8x2.gml"))
        .distill("hop-by-hop")
        .assign(4)
        .netperf(flows=8)
        .observe(False)
        .seed(seed)
        .backend("multiprocess", domains=4, workers=workers)
        .faults(FaultPlan.from_json_file(str(EXAMPLES / "faultplan.json")))
        .resilience(chaos_kill=(80, 0), chaos_signal=signal.SIGKILL)
    )
    metrics = scenario.run(until=0.2).metrics
    assert metrics["run.outcome"] == "completed"
    assert metrics["resilience.workers_restarted"] == workers
    assert metrics["run.digest"] == digests[str(seed)]
    assert metrics["run.outcome_digest"] == digests["outcomes"][str(seed)]


# ----------------------------------------------------------------------
# Checkpoint / resume
# ----------------------------------------------------------------------

@pytest.mark.parametrize("seed", [1, 2, 3])
def test_interrupted_plus_resumed_equals_uninterrupted(tmp_path, seed):
    until = 0.6
    path = str(tmp_path / f"dumbbell-{seed}.ckpt")

    uninterrupted = _dumbbell_scenario(seed=seed).resilience()
    full_report = uninterrupted.run(until=until)
    full_digest = full_report.metrics["run.digest"]
    full_events = full_report.metrics["run.events"]

    # "Interrupt" deterministically: the event budget aborts the run
    # partway through, after at least one checkpoint was written.
    interrupted = _dumbbell_scenario(seed=seed).resilience(
        checkpoint_every=0.2, checkpoint=path,
        max_events=int(full_events * 0.6),
    )
    with pytest.raises(RunAborted) as info:
        interrupted.run(until=until)
    assert info.value.reason == "max_events"
    assert info.value.report.metrics["resilience.checkpoints_written"] >= 1

    checkpoint = load_checkpoint(path)
    assert 0 < checkpoint.barrier_time < until
    resumed_report = Scenario.from_checkpoint(path).run(until=until)
    assert resumed_report.metrics["run.digest"] == full_digest
    assert resumed_report.metrics["run.events"] == full_events
    assert resumed_report.metrics["run.outcome"] == "completed"
    assert resumed_report.metrics["run.resumed_from_t"] == pytest.approx(
        checkpoint.barrier_time
    )


def test_resume_verifies_and_rejects_a_tampered_checkpoint(tmp_path):
    from repro.resilience import CheckpointDivergence, write_checkpoint

    path = str(tmp_path / "tampered.ckpt")
    scenario = _dumbbell_scenario(seed=1).resilience(
        checkpoint_every=0.2, checkpoint=path, max_events=8000,
    )
    with pytest.raises(RunAborted):
        scenario.run(until=0.6)
    checkpoint = load_checkpoint(path)
    checkpoint.digest = "0" * 64  # corrupt the recorded barrier state
    write_checkpoint(path, checkpoint)
    with pytest.raises(CheckpointDivergence):
        Scenario.from_checkpoint(path).run(until=0.6)


def test_resume_shorter_than_barrier_is_an_error(tmp_path):
    from repro.resilience import CheckpointError

    path = str(tmp_path / "short.ckpt")
    scenario = _dumbbell_scenario(seed=1).resilience(
        checkpoint_every=0.2, checkpoint=path, max_events=8000,
    )
    with pytest.raises(RunAborted):
        scenario.run(until=0.6)
    barrier = load_checkpoint(path).barrier_time
    with pytest.raises(CheckpointError, match="barrier"):
        Scenario.from_checkpoint(path).run(until=barrier / 2)


def test_partitioned_serial_checkpoints_at_epoch_barriers(tmp_path):
    path = str(tmp_path / "ring.ckpt")
    scenario = _ring_scenario().resilience(
        checkpoint_every=RING_UNTIL / 4, checkpoint=path,
    )
    report = scenario.run(until=RING_UNTIL)
    assert report.metrics["resilience.checkpoints_written"] >= 2
    checkpoint = load_checkpoint(path)
    assert checkpoint.epoch is not None and checkpoint.epoch > 0
    assert checkpoint.domain_digests
    resumed = Scenario.from_checkpoint(path).run(until=RING_UNTIL)
    assert resumed.metrics["run.digest"] == report.metrics["run.digest"]
    assert resumed.metrics["run.events"] == report.metrics["run.events"]


# ----------------------------------------------------------------------
# The barrier hook sees the same barriers on every backend
# ----------------------------------------------------------------------

#: ``(backend, workers)`` legs of the cross-backend barrier pins.
BARRIER_BACKENDS = [
    pytest.param("serial", None, id="serial"),
    pytest.param("multiprocess", 1, id="multiprocess-1"),
    pytest.param("multiprocess", 2, id="multiprocess-2"),
    pytest.param("multiprocess", 3, id="multiprocess-3"),
]


@pytest.mark.parametrize("backend,workers", BARRIER_BACKENDS)
def test_budget_abort_stops_at_the_same_barrier_on_every_backend(
    backend, workers
):
    scenario = _ring_scenario(backend, workers=workers).resilience(
        max_events=200,
    )
    with pytest.raises(RunAborted) as info:
        scenario.run(until=RING_UNTIL)
    metrics = info.value.report.metrics
    assert metrics["run.outcome"] == "aborted{reason=max_events}"
    assert metrics["run.events"] == 205
    assert metrics["run.digest"] == (
        "fbf9f5f0aa68bfe805e77d5d44cee250ba66f0db03a034a68d9b270c6f3df401"
    )


@pytest.mark.parametrize(
    "backend,workers,chaos_kill",
    [
        *(
            pytest.param(*param.values, None, id=param.id)
            for param in BARRIER_BACKENDS
        ),
        *(
            pytest.param(*param.values, (5, 0), id=f"{param.id}-killed")
            for param in BARRIER_BACKENDS[1:]
        ),
    ],
)
def test_checkpoints_land_on_the_same_barriers_on_every_backend(
    tmp_path, monkeypatch, backend, workers, chaos_kill
):
    """The hook fires once per epoch, in order, and writes the same
    checkpoints on every backend. A worker killed mid-run changes
    nothing the hook sees: recovery replays the barriers already seen
    without calling it again."""
    from repro.resilience import RunBarrier

    seen = []
    call = RunBarrier.__call__

    def recording_call(self, epoch, *args, **kwargs):
        seen.append(epoch)
        return call(self, epoch, *args, **kwargs)

    monkeypatch.setattr(RunBarrier, "__call__", recording_call)
    path = str(tmp_path / "ring.ckpt")
    scenario = _ring_scenario(backend, workers=workers).resilience(
        checkpoint_every=RING_UNTIL / 4, checkpoint=path,
        chaos_kill=chaos_kill, retries=1,
    )
    scenario._resilience.backoff_base_s = 0.0
    report = scenario.run(until=RING_UNTIL)
    digest = "c47b54503d82a0eae498efb3677e8ad1b0a87e354da68b67a11a4f119b279dda"
    assert report.metrics["run.outcome"] == "completed"
    assert report.metrics["run.digest"] == digest
    assert report.metrics["resilience.checkpoints_written"] == 4
    assert seen == list(range(15))
    checkpoint = load_checkpoint(path)
    assert checkpoint.barrier_time == pytest.approx(RING_UNTIL)
    assert checkpoint.epoch == 14
    assert checkpoint.digest == digest
    if chaos_kill is not None:
        # The whole group restarts.
        assert report.metrics["resilience.workers_restarted"] == workers


# ----------------------------------------------------------------------
# Budget guards
# ----------------------------------------------------------------------

def test_budget_abort_flushes_partial_report_with_counters():
    scenario = _dumbbell_scenario(seed=1).resilience(max_events=4000)
    with pytest.raises(RunAborted) as info:
        scenario.run(until=1.0)
    report = info.value.report
    assert report is not None
    assert report.metrics["run.outcome"] == "aborted{reason=max_events}"
    assert report.metrics["run.events"] >= 4000
    for counter in COUNTERS:
        assert counter in report.metrics, counter


def test_wall_budget_aborts_partitioned_serial():
    scenario = _ring_scenario().resilience(max_wall=0.0)
    with pytest.raises(RunAborted) as info:
        scenario.run(until=RING_UNTIL)
    assert info.value.reason == "max_wall"
    assert info.value.report.metrics["run.outcome"] == "aborted{reason=max_wall}"


def test_multiprocess_budget_abort_reaps_workers():
    import multiprocessing

    before = len(multiprocessing.active_children())
    scenario = _ring_scenario("multiprocess", workers=2).resilience(
        max_events=200,
    )
    with pytest.raises(RunAborted) as info:
        scenario.run(until=RING_UNTIL)
    report = info.value.report
    assert report.metrics["run.outcome"] == "aborted{reason=max_events}"
    for counter in COUNTERS:
        assert counter in report.metrics, counter
    assert len(multiprocessing.active_children()) <= before


@pytest.mark.parametrize(
    "knob", ["heartbeat_interval_s", "epoch_timeout_s"]
)
@pytest.mark.parametrize("value", [0, -1.0])
def test_non_positive_supervision_interval_is_rejected(knob, value):
    """Both must be positive: with a zero heartbeat interval the parent
    busy-polls and a plain run sends no heartbeats at all, so it is
    declared hung; a zero epoch timeout declares every worker hung at
    once."""
    scenario = _ring_scenario("multiprocess", workers=2)
    scenario.build()
    with pytest.raises(ValueError, match=knob):
        run_multiprocess(scenario, until=RING_UNTIL, **{knob: value})


def test_zero_heartbeat_interval_is_rejected_on_a_supervised_run():
    scenario = _ring_scenario("multiprocess", workers=2).resilience(
        heartbeat_interval=0,
    )
    with pytest.raises(ValueError, match="heartbeat_interval_s"):
        scenario.run(until=RING_UNTIL)


# ----------------------------------------------------------------------
# Degradation
# ----------------------------------------------------------------------

def _desyncing_chaos_scenario(workers=2, retries=1):
    """A run the supervisor cannot recover: the injected fault draws
    from an unseeded RNG, so every post-crash replay diverges
    (WorkerDesync) until retries exhaust."""
    return (
        _ring_scenario("multiprocess", workers=workers)
        .inject_fault(RING_UNTIL)
        .resilience(
            # Mid-run: coalesced windows leave ~15 epochs for this run
            # (hundreds before per-pair lookahead), so the kill epoch
            # must sit well inside that budget or it never fires.
            chaos_kill=(5, 0), retries=retries,
        )
    )


def test_unrecoverable_worker_degrades_to_serial_with_counters():
    scenario = _desyncing_chaos_scenario()
    scenario._resilience.backoff_base_s = 0.0
    report = scenario.run(until=RING_UNTIL)
    outcome = report.metrics["run.outcome"]
    assert outcome.startswith("degraded{reason=worker 0 unrecoverable")
    assert report.metrics["resilience.downgrades"] == 1
    assert report.metrics["resilience.retries"] >= 1
    assert report.metrics["run.digest"]


def test_degraded_run_starts_its_budget_once(monkeypatch):
    """The local rerun reuses the run's barrier: one budget clock, one
    run-phase timing spanning the failed parallel attempt too."""
    from repro.resilience import BudgetGuard

    starts = []
    start = BudgetGuard.start

    def counting_start(self):
        starts.append(self)
        return start(self)

    monkeypatch.setattr(BudgetGuard, "start", counting_start)
    scenario = _desyncing_chaos_scenario().resilience(max_wall=600)
    scenario.observe(True)
    scenario._resilience.backoff_base_s = 0.0
    report = scenario.run(until=RING_UNTIL)
    assert report.metrics["run.outcome"].startswith("degraded{")
    assert len(starts) == 1
    assert report.metrics["phase.run_s"]["count"] == 1
    assert report.wall_time_s == pytest.approx(
        report.metrics["phase.run_s"]["sum"], rel=0.05
    )


def test_no_degrade_escalates_instead():
    scenario = _desyncing_chaos_scenario()
    scenario._resilience.degrade = False
    scenario._resilience.backoff_base_s = 0.0
    with pytest.raises(SupervisionEscalation):
        scenario.run(until=RING_UNTIL)


def test_escalation_shuts_workers_down_promptly():
    """Shutdown stops healthy workers explicitly instead of waiting out
    the epoch timeout (30 s) on each of them."""
    import time

    scenario = _desyncing_chaos_scenario()
    scenario._resilience.degrade = False
    scenario._resilience.backoff_base_s = 0.0
    t0 = time.monotonic()
    with pytest.raises(SupervisionEscalation):
        scenario.run(until=RING_UNTIL)
    assert time.monotonic() - t0 < 10.0


# ----------------------------------------------------------------------
# inject_fault: declarative, spec-portable (the bugfix regression)
# ----------------------------------------------------------------------

def test_inject_fault_survives_the_spec_round_trip():
    scenario = _ring_scenario().inject_fault(0.01)
    spec = scenario.to_spec()
    assert spec.traffic[-1] == ("nondeterminism", (("seconds", 0.01),))
    assert Scenario.from_spec(spec).to_spec() == spec


def test_inject_fault_rejects_a_nonpositive_duration_on_every_path():
    spec = _ring_scenario().inject_fault(0.01).to_spec()
    for scenario in (
        _ring_scenario().inject_fault(0),
        _ring_scenario().workload("nondeterminism", seconds=-1),
        Scenario.from_spec(spec.with_overrides(seconds=0)),
    ):
        with pytest.raises(ValueError, match="fault duration must be > 0"):
            scenario.build()


def test_injected_fault_is_detected_inside_multiprocess_workers():
    """The regression: a fault installed via a bare closure was
    rejected by to_spec and silently never ran in the workers, so
    ``sanitize --inject-fault --backend multiprocess`` reported
    deterministic. The declarative fault must diverge."""
    from repro.check import sanitize_scenario_multiprocess

    result = sanitize_scenario_multiprocess(
        lambda: _ring_scenario("multiprocess").inject_fault(RING_UNTIL),
        until=RING_UNTIL,
        seed=3,
        runs=2,
        worker_counts=(2,),
    )
    assert not result.identical


def test_injected_fault_is_detected_serially():
    from repro.check import sanitize_scenario

    result = sanitize_scenario(
        lambda: _dumbbell_scenario().inject_fault(0.2),
        until=0.2,
        seed=3,
        runs=2,
    )
    assert not result.identical
