"""Checkpoint/resume by verified deterministic replay.

A live emulation is *not* picklable mid-run (TCP streams hold local
closures, digest objects hold hashlib state), and it does not need to
be: builds and runs are deterministic per the ``repro.check``
contract, so the scenario spec plus a barrier position IS the state.
A checkpoint therefore stores

``(ScenarioSpec, epoch index / barrier time, per-domain digests,
event counts, domain snapshots, RNG stream states, metric snapshot)``

and ``--resume`` rebuilds the scenario from the spec, re-runs it from
t=0 to the recorded barrier, *verifies* that the replayed digests,
event counts, and RNG states match the checkpoint exactly
(:class:`CheckpointDivergence` otherwise), then continues to ``until``.
The final digest of a resumed run trivially equals the uninterrupted
run's — the event stream is the same stream — and the verification
step turns that "trivially" into a checked property: resume refuses to
continue from a prefix it cannot prove identical.

Checkpoints are written atomically (temp file + ``os.replace``) at
epoch barriers (partitioned backends) or virtual-time chunk marks
(single-domain runs) so a file on disk is always a complete, loadable
checkpoint even if the writer was killed mid-write.

:class:`RunBarrier` is the one place a supervised run observes its
barriers: budget check, resume verification and checkpoint write,
whichever executor reached the barrier.
"""

from __future__ import annotations

import os
import pickle
import tempfile
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.engine.domain import diff_domain_digests, run_digest
from repro.resilience.policy import BudgetGuard, ResilienceError

__all__ = [
    "CHECKPOINT_VERSION",
    "CheckpointError",
    "CheckpointDivergence",
    "Checkpoint",
    "CheckpointWriter",
    "write_checkpoint",
    "load_checkpoint",
    "rng_stream_states",
    "ResumeVerifier",
    "RunBarrier",
]

CHECKPOINT_VERSION = 2


class CheckpointError(ResilienceError):
    """The checkpoint file is unreadable, wrong type, or wrong version."""


class CheckpointDivergence(ResilienceError):
    """Replay did not reproduce the checkpointed barrier state."""

    def __init__(self, mismatches: List[str]) -> None:
        self.mismatches = list(mismatches)
        super().__init__(
            "resume verification failed — replayed run diverged from "
            "the checkpoint: " + "; ".join(self.mismatches)
        )


@dataclass
class Checkpoint:
    """Everything needed to resume (and verify) a run at a barrier."""

    spec: Any  # picklable ScenarioSpec
    until: float  # the original run's target virtual time
    seed: int
    barrier_time: float  # virtual time of the barrier
    epoch: Optional[int]  # epoch index at the barrier (partitioned only)
    events: int  # total events dispatched at the barrier
    digest: str  # composed sanitize digest at the barrier
    domain_digests: Optional[Dict[int, str]] = None
    domain_counts: Optional[Dict[int, int]] = None
    snapshots: Optional[List[dict]] = None  # EventDomain.snapshot() list
    rng_states: Optional[Dict[str, tuple]] = None
    metrics: Dict[str, Any] = field(default_factory=dict)
    index: int = 0  # ordinal of this checkpoint within the run
    # Fault-timeline position and the per-link state it implies at the
    # barrier.  Resume replays the plan from t=0 (the spec carries it),
    # so these exist purely so the verifier can prove the replayed
    # timeline landed in the same place.
    fault_cursor: Optional[int] = None
    link_state: Optional[Dict[Any, tuple]] = None
    version: int = CHECKPOINT_VERSION


def write_checkpoint(path: str, checkpoint: Checkpoint) -> None:
    """Atomically pickle ``checkpoint`` to ``path``."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp_path = tempfile.mkstemp(
        prefix=os.path.basename(path) + ".", suffix=".tmp", dir=directory
    )
    try:
        with os.fdopen(fd, "wb") as fh:
            pickle.dump(checkpoint, fh, protocol=pickle.HIGHEST_PROTOCOL)
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise


def load_checkpoint(path: str) -> Checkpoint:
    try:
        with open(path, "rb") as fh:
            checkpoint = pickle.load(fh)
    except (OSError, pickle.UnpicklingError, EOFError, AttributeError) as exc:
        raise CheckpointError(f"cannot load checkpoint {path!r}: {exc}") from exc
    if not isinstance(checkpoint, Checkpoint):
        raise CheckpointError(
            f"{path!r} does not contain a Checkpoint "
            f"(got {type(checkpoint).__name__})"
        )
    if checkpoint.version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"checkpoint version {checkpoint.version} unsupported "
            f"(expected {CHECKPOINT_VERSION})"
        )
    return checkpoint


def rng_stream_states(registry) -> Dict[str, tuple]:
    """Snapshot every named stream's generator state."""
    return {
        name: stream.getstate()
        for name, stream in sorted(registry._streams.items())
    }


class CheckpointWriter:
    """Cadence-driven checkpoint emitter for the resilient run loops.

    ``due(barrier_time)`` is checked at every barrier; when the virtual
    clock crosses the next cadence mark, the caller gathers state and
    calls :meth:`write`. The cadence is anchored at t=0 so a resumed
    run writes checkpoints at the same marks as the original.
    """

    def __init__(self, path: str, every_s: float, spec, until: float, seed: int) -> None:
        if every_s <= 0:
            raise ValueError("checkpoint cadence must be positive")
        self.path = path
        self.every_s = float(every_s)
        self.spec = spec
        self.until = until
        self.seed = seed
        self.written = 0
        self._next_mark = self.every_s

    def due(self, barrier_time: float) -> bool:
        return barrier_time >= self._next_mark

    def write(
        self,
        barrier_time: float,
        events: int,
        digest: str,
        epoch: Optional[int] = None,
        domain_digests: Optional[Dict[int, str]] = None,
        domain_counts: Optional[Dict[int, int]] = None,
        snapshots: Optional[List[dict]] = None,
        rng_states: Optional[Dict[str, tuple]] = None,
        metrics: Optional[Dict[str, Any]] = None,
        fault_cursor: Optional[int] = None,
        link_state: Optional[Dict[Any, tuple]] = None,
    ) -> Checkpoint:
        checkpoint = Checkpoint(
            spec=self.spec,
            until=self.until,
            seed=self.seed,
            barrier_time=barrier_time,
            epoch=epoch,
            events=events,
            digest=digest,
            domain_digests=domain_digests,
            domain_counts=domain_counts,
            snapshots=snapshots,
            rng_states=rng_states,
            metrics=dict(metrics or {}),
            index=self.written,
            fault_cursor=fault_cursor,
            link_state=link_state,
        )
        write_checkpoint(self.path, checkpoint)
        self.written += 1
        while self._next_mark <= barrier_time:
            self._next_mark += self.every_s
        return checkpoint


class ResumeVerifier:
    """Compares a replayed run's barrier state against a checkpoint."""

    def __init__(self, checkpoint: Checkpoint) -> None:
        self.checkpoint = checkpoint
        self.verified = False

    def due(self, epoch: Optional[int], barrier_time: float) -> bool:
        """Whether this barrier is the (still unverified) checkpoint
        barrier: the same epoch index on a partitioned run, the first
        chunk mark at or past the checkpoint time on a single domain."""
        if self.verified:
            return False
        if self.checkpoint.epoch is not None:
            return epoch == self.checkpoint.epoch
        return barrier_time >= self.checkpoint.barrier_time

    def verify(
        self,
        digest: Optional[str] = None,
        events: Optional[int] = None,
        domain_digests: Optional[Dict[int, str]] = None,
        rng_states: Optional[Dict[str, tuple]] = None,
        fault_cursor: Optional[int] = None,
        link_state: Optional[Dict[Any, tuple]] = None,
    ) -> None:
        """Raise :class:`CheckpointDivergence` on any mismatch."""
        ckpt = self.checkpoint
        mismatches: List[str] = []
        if digest is not None and digest != ckpt.digest:
            mismatches.append(
                f"composed digest {digest[:16]}... != "
                f"checkpointed {ckpt.digest[:16]}..."
            )
        if events is not None and events != ckpt.events:
            mismatches.append(
                f"event count {events} != checkpointed {ckpt.events}"
            )
        if domain_digests is not None and ckpt.domain_digests is not None:
            bad = diff_domain_digests(ckpt.domain_digests, domain_digests)
            if bad:
                mismatches.append(f"per-domain digests differ for {bad}")
        if rng_states is not None and ckpt.rng_states is not None:
            bad_streams = sorted(
                name
                for name in set(ckpt.rng_states) | set(rng_states)
                if ckpt.rng_states.get(name) != rng_states.get(name)
            )
            if bad_streams:
                mismatches.append(f"RNG stream states differ for {bad_streams}")
        # Checkpoints pickled before the fault-timeline fields existed
        # read the dataclass defaults (None) and skip these comparisons.
        if fault_cursor is not None and ckpt.fault_cursor is not None:
            if fault_cursor != ckpt.fault_cursor:
                mismatches.append(
                    f"fault timeline cursor {fault_cursor} != "
                    f"checkpointed {ckpt.fault_cursor}"
                )
        if link_state is not None and ckpt.link_state is not None:
            bad_links = sorted(
                str(link)
                for link in set(ckpt.link_state) | set(link_state)
                if ckpt.link_state.get(link) != link_state.get(link)
            )
            if bad_links:
                mismatches.append(f"perturbed link state differs for {bad_links}")
        if mismatches:
            raise CheckpointDivergence(mismatches)
        self.verified = True


class RunBarrier:
    """The barrier hook of one supervised run.

    Created once per run, it owns the started :class:`BudgetGuard`,
    the optional :class:`CheckpointWriter` and the optional
    :class:`ResumeVerifier`. Every executor calls it at each barrier:
    the serial partitioned loop and the multiprocess parent at epoch
    barriers, a single-domain run at its virtual-time chunk marks. A
    multiprocess run that degrades to local execution keeps calling
    the same object, so the wall budget and the checkpoint count span
    the whole run.
    """

    def __init__(
        self,
        budget: BudgetGuard,
        writer: Optional[CheckpointWriter] = None,
        verifier: Optional[ResumeVerifier] = None,
    ) -> None:
        self.budget = budget.start()
        self.writer = writer
        self.verifier = verifier
        #: False when no barrier needs visiting at all (no budget, no
        #: checkpoints, no resume): a local run then installs no hook.
        self.observing = (
            budget.active or writer is not None or verifier is not None
        )

    def __call__(
        self,
        epoch: Optional[int],
        horizon: float,
        domain_digests: Dict[int, str],
        domain_counts: Dict[int, int],
        state: Optional[Callable[[], Dict[str, Any]]] = None,
        pids: Sequence[int] = (),
    ) -> None:
        """Check the budget, verify a resume, write a checkpoint.

        ``epoch`` is None at a single-domain chunk mark. ``state``,
        given only by in-process executors, returns the
        ``rng_states``/``snapshots``/``fault_cursor``/``link_state``
        the verifier and writer record; it is called only when one of
        them is due. ``pids`` are worker processes whose resident set
        counts against the RSS budget.
        """
        events = sum(domain_counts.values())
        self.budget.check(events=events, pids=pids)
        verify = self.verifier is not None and self.verifier.due(epoch, horizon)
        write = self.writer is not None and self.writer.due(horizon)
        if not (verify or write):
            return
        digest = run_digest(domain_digests)
        extra = state() if state is not None else {}
        if verify:
            self.verifier.verify(
                digest=digest,
                events=events,
                domain_digests=domain_digests,
                rng_states=extra.get("rng_states"),
                fault_cursor=extra.get("fault_cursor"),
                link_state=extra.get("link_state"),
            )
        if write:
            self.writer.write(
                barrier_time=horizon,
                events=events,
                digest=digest,
                epoch=epoch,
                domain_digests=domain_digests,
                domain_counts=domain_counts,
                metrics={"sim.events_dispatched": events},
                **extra,
            )
