"""WorkerSupervisor: heartbeats, failure typing, deterministic recovery.

The multiprocess backend (:mod:`repro.engine.parallel`) starts one
worker per domain group and sends every worker one ``("run", until,
observed)`` command: the workers drive the epoch loop themselves and
exchange mail with their peers directly. On a plain run
(:meth:`WorkerSupervisor.run_all`) the supervisor then only waits for
the ``done`` replies; heartbeats carry each worker's epoch count, so
the epoch timeout still bounds one epoch. On an *observed* run
(:meth:`WorkerSupervisor.run_epoch`) every worker stops at each epoch
barrier and reports ``("barrier", epoch, horizon, messages_routed,
digests)``; the supervisor gathers the reports and releases the
barrier with ``("go",)`` on the next call.

The workers depend on each other, so any failure stops the whole
group, which is respawned (with a fresh peer mesh) and rerun. Recovery
is *provably* correct:

* builds are deterministic (the ``repro.check`` contract), so a
  respawned worker rebuilt from the same picklable ``ScenarioSpec`` is
  an identical object graph, and the rerun retraces the lost run
  event-for-event;
* on an observed run the rerun is released silently through every
  barrier already seen (the barrier hook does not fire again), and
  its per-domain ``(digest, event count)`` at the last one must equal
  the recorded values. A mismatch is a :class:`WorkerDesync` —
  recovery refuses to continue from a state it cannot prove equal to
  the pre-crash one.

Failures are typed: :class:`WorkerCrash` (process died / pipe broke /
worker reported a traceback), :class:`WorkerHang` (alive but silent
past the epoch timeout — the heartbeat thread distinguishes a wedged
process from a livelocked one), :class:`WorkerDesync` (replay digest
mismatch). Each carries the worker id, its domain group, the epoch
index, and the original traceback when one exists.

Retries follow the
:class:`~repro.resilience.policy.RetryPolicy`; when attempts run out a
:class:`SupervisionEscalation` is raised and the caller may degrade to
serial partitioned execution (same digests by construction).

Wall clocks are legal here: this module lives outside the simulation
scope on purpose — supervision timing never influences virtual time.
"""

from __future__ import annotations

import os
import signal
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.engine.domain import diff_domain_digests
from repro.resilience.policy import ResilienceError, RetryPolicy

#: How long :meth:`WorkerSupervisor.shutdown` waits for a stopped
#: worker to exit before terminating it.
_STOP_JOIN_S = 1.0

__all__ = [
    "WorkerFailure",
    "WorkerCrash",
    "WorkerHang",
    "WorkerDesync",
    "SupervisionEscalation",
    "WorkerHandle",
    "WorkerSupervisor",
]


class WorkerFailure(ResilienceError):
    """Base class for a single worker's failure.

    Carries everything a post-mortem needs: ``worker`` (index),
    ``domains`` (the event-domain group it owns), ``epoch`` (index of
    the epoch in flight when it failed), and ``traceback`` (the remote
    traceback text, when the worker managed to report one).
    """

    kind = "failed"

    def __init__(
        self,
        worker: int,
        domains: Sequence[int],
        epoch: int,
        detail: str = "",
        traceback: Optional[str] = None,
    ) -> None:
        self.worker = worker
        self.domains = list(domains)
        self.epoch = epoch
        self.traceback = traceback
        message = (
            f"worker {worker} (domains {self.domains}) {self.kind} "
            f"at epoch {epoch}"
        )
        if detail:
            message += f": {detail}"
        if traceback:
            message += f"\n--- worker traceback ---\n{traceback.rstrip()}"
        super().__init__(message)


class WorkerCrash(WorkerFailure):
    """The worker process died, broke its pipe, or reported an error."""

    kind = "crashed"


class WorkerHang(WorkerFailure):
    """The worker is alive but has not answered within the timeout."""

    kind = "hung"


class WorkerDesync(WorkerFailure):
    """Replay after recovery produced different per-domain digests.

    This is the one failure recovery must *not* paper over: it means
    the rebuilt worker's event stream diverged from the pre-crash one,
    so continuing would silently corrupt the run's determinism claim.
    """

    kind = "desynchronized"


class SupervisionEscalation(ResilienceError):
    """Retries for one worker ran out; the run cannot stay parallel."""

    def __init__(self, worker: int, attempts: int, last: WorkerFailure) -> None:
        self.worker = worker
        self.attempts = attempts
        self.last = last
        super().__init__(
            f"worker {worker} unrecoverable after {attempts} "
            f"attempt(s); last failure: {last}"
        )


class WorkerHandle:
    """Parent-side state for one worker process."""

    __slots__ = ("index", "domains", "conn", "proc", "progress")

    def __init__(self, index: int, domains: Sequence[int]) -> None:
        self.index = index
        self.domains = list(domains)
        self.conn = None
        self.proc = None
        #: Epochs its heartbeats report finished in this launch's run.
        self.progress = 0

    @property
    def pid(self) -> Optional[int]:
        return self.proc.pid if self.proc is not None else None


def _wait(conns: List[Any], timeout: float) -> List[Any]:
    """The connections among ``conns`` with something to read, waiting
    up to ``timeout``; a single connection is polled directly."""
    if len(conns) == 1:
        return conns if conns[0].poll(timeout) else []
    # Imported here: only a multi-worker wait needs it, and every run
    # imports this module.
    from multiprocessing.connection import wait

    return wait(conns, timeout)


class WorkerSupervisor:
    """Drives a group of peer-to-peer epoch workers with recovery.

    ``spawn(index)`` must start worker ``index`` and return
    ``(connection, process)``; the supervisor owns both afterwards.
    """

    def __init__(
        self,
        spawn: Callable[[int], Tuple[Any, Any]],
        owned: Sequence[Sequence[int]],
        policy: Optional[RetryPolicy] = None,
        epoch_timeout_s: float = 30.0,
        heartbeat_interval_s: float = 0.5,
    ) -> None:
        self._spawn = spawn
        self.policy = policy or RetryPolicy()
        self.epoch_timeout_s = float(epoch_timeout_s)
        self.heartbeat_interval_s = float(heartbeat_interval_s)
        self.workers = [WorkerHandle(i, group) for i, group in enumerate(owned)]
        # What a group restart replays: the run command once issued,
        # how many barriers the workers reported, the merged
        # ``{domain: (hexdigest, event_count, outcome_hexdigest)}`` at
        # the last one (the recovery ground truth) and whether the run
        # has finished.
        self._run: Optional[Tuple[Any, ...]] = None
        self._barriers = 0
        self._barrier_digests: Dict[int, Tuple[str, int, str]] = {}
        self._run_done = False
        # Counters surfaced as resilience.* metrics.
        self.heartbeats_missed = 0
        self.workers_restarted = 0
        self.retries = 0

    # -- lifecycle -----------------------------------------------------

    @property
    def epoch_index(self) -> int:
        """Index of the epoch in flight: the barriers reported so far,
        or the furthest heartbeat-reported epoch when that is ahead."""
        return max(self._barriers, *(h.progress for h in self.workers))

    def start(self) -> None:
        """Spawn every worker and await readiness. A worker that fails
        to come up restarts the whole group: the workers share one
        peer mesh."""
        for handle in self.workers:
            self._launch(handle)
        try:
            for handle in self.workers:
                self._ready(handle)
        except WorkerFailure as failure:
            self._restart_group(failure)

    def run_epoch(self, until):
        """One step of an observed run: release the workers — the first
        call issues ``("run", until, True)``, later ones answer the
        barrier they wait at with ``("go",)`` — then gather what they
        report next.

        Returns ``("barrier", epoch, horizon, messages_routed,
        digests)`` merged over the workers (the summed message count
        and the union of their ``{domain: (hexdigest, count,
        outcome_hexdigest)}``), or,
        once the run is over, the merged ``done`` reply of
        :meth:`run_all`.
        """
        command = ("go",) if self._run is not None else ("run", until, True)
        replies = self._command(command)
        if replies[0][0] != "barrier":
            return self._merge_done(replies)
        self._barriers += 1
        self._barrier_digests = _barrier_digests(replies)
        routed = sum(reply[3] for reply in replies)
        return ("barrier", replies[0][1], replies[0][2], routed,
                self._barrier_digests)

    def run_all(self, until, timeout_s: Optional[float] = None):
        """A plain run: one ``("run", until, False)`` command has every
        worker drive its own epoch loop to ``until``, swapping mail and
        next-event times with its peers — no barrier round trips.

        The wait is bounded per finished epoch, not for the whole run
        (see :meth:`_gather`): a long healthy run completes, while a
        wedged or livelocked worker still raises :class:`WorkerHang`.
        Returns the workers' ``("done", next_times, (epochs,
        messages_routed), digests)`` replies merged into one: the
        union of their per-domain maps, the common epoch count and the
        summed message count.
        """
        return self._merge_done(self._command(("run", until, False), timeout_s))

    def finish(self, until) -> List[dict]:
        """Send the final command — ``("finish", until)`` after the
        run, or ``("finish", None)`` to halt an observed run at the
        barrier it waits at; returns each worker's ``(stats,
        digests)`` result in worker order."""
        return [reply[1] for reply in self._command(("finish", until))]

    def shutdown(self) -> None:
        """Stop and reap every worker process.

        Closing the parent's pipe end does not wake a worker blocked
        on its next command (a forked worker holds its own copy of
        that end), so each live worker is first sent an explicit
        ``("stop",)``. Every worker is then told before any is
        joined, and the join is short: a healthy worker exits at once,
        and one that does not is terminated and finally SIGKILLed so
        no orphan survives.
        """
        for handle in self.workers:
            if handle.conn is not None:
                try:
                    handle.conn.send(("stop",))
                except (OSError, ValueError):  # already gone
                    pass
        for handle in self.workers:
            self._reap(handle, join_timeout_s=_STOP_JOIN_S)

    def kill(self, worker: int, sig: int = signal.SIGKILL) -> None:
        """Deliver ``sig`` to a worker — the chaos-injection hook. A
        SIGKILL is awaited, so the next command finds that worker dead
        rather than racing its peers' reports of the broken mesh."""
        handle = self.workers[worker]
        if handle.proc is not None and handle.proc.pid is not None:
            os.kill(handle.proc.pid, sig)
            if sig == signal.SIGKILL:
                handle.proc.join(timeout=_STOP_JOIN_S)

    def pids(self) -> List[int]:
        return [h.proc.pid for h in self.workers if h.proc is not None]

    # -- plumbing ------------------------------------------------------

    def _launch(self, handle: WorkerHandle) -> None:
        handle.progress = 0
        handle.conn, handle.proc = self._spawn(handle.index)

    def _ready(self, handle: WorkerHandle) -> None:
        reply = self._recv(handle)
        if reply[0] != "ready":
            raise WorkerCrash(
                handle.index,
                handle.domains,
                self.epoch_index,
                detail=f"expected 'ready', got {reply[0]!r}",
            )

    def _send(self, handle: WorkerHandle, command) -> None:
        try:
            handle.conn.send(command)
        except (OSError, ValueError) as exc:
            raise WorkerCrash(
                handle.index,
                handle.domains,
                self.epoch_index,
                detail=f"pipe write failed: {exc!r}",
            ) from exc

    def _check_alive(self, handle: WorkerHandle) -> None:
        """Raise :class:`WorkerCrash` if the worker process has died."""
        if handle.proc is not None and not handle.proc.is_alive():
            raise WorkerCrash(
                handle.index,
                handle.domains,
                self.epoch_index,
                detail=f"process died (exitcode {handle.proc.exitcode})",
            )

    def _issue(self, command, timeout_s: Optional[float] = None) -> List[Any]:
        """Send one ``command`` to every worker, then gather every
        reply; any failure propagates. All workers are told before any
        is awaited."""
        for handle in self.workers:
            self._send(handle, command)
        return self._gather(self.workers, timeout_s)

    def _command(self, command, timeout_s: Optional[float] = None) -> List[Any]:
        """:meth:`_issue` ``command``, recovering the whole group if any
        worker fails (see :meth:`_restart_group`)."""
        if command[0] == "run":
            self._run = command
        try:
            return self._issue(command, timeout_s)
        except WorkerFailure as failure:
            return self._restart_group(failure, command, timeout_s)

    def _merge_done(self, replies: List[Any]):
        """One ``done`` reply from every worker's: see :meth:`run_all`."""
        self._run_done = True
        next_times: Dict[int, float] = {}
        digests: Dict[int, Tuple[str, int, str]] = {}
        epochs = routed = 0
        for reply in replies:
            next_times.update(reply[1])
            digests.update(reply[3])
            epochs = max(epochs, reply[2][0])
            routed += reply[2][1]
        return ("done", next_times, (epochs, routed), digests)

    def _recv(self, handle: WorkerHandle, timeout_s: Optional[float] = None):
        """Receive ``handle``'s next non-heartbeat reply (see
        :meth:`_gather`)."""
        return self._gather([handle], timeout_s)[0]

    def _gather(
        self, handles: Sequence[WorkerHandle], timeout_s: Optional[float] = None
    ) -> List[Any]:
        """Receive the next non-heartbeat reply of every handle, each
        within the timeout; returns them in ``handles`` order.

        Waits on every pipe at once at the heartbeat cadence, so no
        worker's beats pile up while another is awaited: every empty
        window counts a missed heartbeat; EOF or a dead process is a
        crash; hitting a worker's deadline with the process still alive
        is a hang (the message records whether heartbeats kept
        arriving — livelock — or the process went completely silent —
        wedged/stopped).

        Heartbeats carry the worker's epoch count. A beat whose count
        exceeds every count that worker reported so far in this wait
        (starting from 0, so the first beat of a run already counts)
        restarts its deadline, so the timeout bounds one epoch: a run
        that keeps finishing epochs is waited out, while a worker that
        beats without finishing one (livelock) still hangs.
        """
        timeout_s = self.epoch_timeout_s if timeout_s is None else timeout_s
        waiting = {id(handle.conn): handle for handle in handles}
        deadline = dict.fromkeys(waiting, time.monotonic() + timeout_s)
        beats = dict.fromkeys(waiting, 0)
        epochs = dict.fromkeys(waiting, 0)
        replies: Dict[int, Any] = {}
        while waiting:
            now = time.monotonic()
            for key, handle in waiting.items():
                # Only an empty pipe past the deadline is a hang: queued
                # replies are read first, so a stall on this side (a
                # long GC pause) cannot hide beats that report progress.
                if deadline[key] <= now and not handle.conn.poll(0):
                    self._check_alive(handle)
                    liveness = (
                        f"{beats[key]} heartbeat(s) received while "
                        "waiting (livelocked?)"
                        if beats[key]
                        else "no heartbeats received (wedged or stopped)"
                    )
                    raise WorkerHang(
                        handle.index,
                        handle.domains,
                        self.epoch_index,
                        detail=f"no reply within {timeout_s:g}s; {liveness}",
                    )
            remaining = min(deadline.values()) - now
            window = min(self.heartbeat_interval_s, max(remaining, 0.0))
            ready = _wait([handle.conn for handle in waiting.values()], window)
            if not ready:
                self.heartbeats_missed += 1
                for handle in waiting.values():
                    self._check_alive(handle)
                continue
            for conn in ready:
                key = id(conn)
                handle = waiting[key]
                try:
                    reply = conn.recv()
                except (EOFError, OSError) as exc:
                    raise WorkerCrash(
                        handle.index,
                        handle.domains,
                        self.epoch_index,
                        detail=f"pipe closed: {exc!r}",
                    ) from exc
                tag = reply[0]
                if tag == "hb":
                    beats[key] += 1
                    if len(reply) > 1 and reply[1] > epochs[key]:
                        deadline[key] = time.monotonic() + timeout_s
                        epochs[key] = reply[1]
                        self._note_progress(handle, reply[1])
                    continue
                if tag == "error":
                    info = reply[1] if isinstance(reply[1], dict) else {}
                    raise WorkerCrash(
                        handle.index,
                        handle.domains,
                        info.get("epoch", self.epoch_index),
                        detail="worker reported an error",
                        traceback=info.get(
                            "traceback",
                            reply[1] if isinstance(reply[1], str) else None,
                        ),
                    )
                replies[handle.index] = reply
                del waiting[key], deadline[key]
        return [replies[handle.index] for handle in handles]

    def _note_progress(self, handle: WorkerHandle, epochs: int) -> None:
        """A heartbeat reported ``epochs`` finished epochs of the run."""
        handle.progress = epochs

    # -- recovery ------------------------------------------------------

    def _retry(self, failure: WorkerFailure, attempt: Callable[[], Any]):
        """Run ``attempt`` (a recovery) until it succeeds or the retry
        policy runs out; returns its result. Raises
        :class:`SupervisionEscalation`, carrying the supervisor's
        counters, when attempts run out."""
        last: WorkerFailure = failure
        attempts = 0
        while attempts < self.policy.max_attempts:
            attempts += 1
            self.retries += 1
            self.policy.sleep(attempts)
            try:
                return attempt()
            except WorkerFailure as exc:
                last = exc
        escalation = SupervisionEscalation(failure.worker, attempts, last)
        # Counters travel with the escalation so a degraded run's
        # report can still account for the failed parallel attempt.
        escalation.counters = {
            "heartbeats_missed": self.heartbeats_missed,
            "workers_restarted": self.workers_restarted,
            "retries": self.retries,
        }
        raise escalation from last

    def _restart_group(self, failure: WorkerFailure, command=None,
                       timeout_s: Optional[float] = None):
        """Recover the whole group per the retry policy, then issue
        ``command`` (the one in flight, if any) and return its replies.

        Every worker is stopped and all are respawned in index order
        (the executor gives each launch a fresh peer mesh). Unless the
        command in flight is the run itself, the group is then replayed
        to where it failed: the run command is reissued and every
        barrier already seen is released silently (the barrier hook
        does not fire again), and the rerun's digests at the last one
        must equal the recorded ones (:meth:`_verify`)."""

        def attempt():
            for handle in self.workers:
                self._reap(handle, join_timeout_s=0.0)
            for handle in self.workers:
                self.workers_restarted += 1
                self._launch(handle)
            for handle in self.workers:
                self._ready(handle)
            if self._run is not None and command is not self._run:
                replies = self._issue(self._run, timeout_s)
                for _ in range(self._barriers - 1):
                    replies = self._issue(("go",), timeout_s)
                if self._barriers:
                    self._verify(replies)
                    if self._run_done:
                        self._issue(("go",), timeout_s)
            return None if command is None else self._issue(command, timeout_s)

        return self._retry(failure, attempt)

    def _verify(self, replies: List[Any]) -> None:
        """Check a rerun's reports at the last barrier seen against the
        recorded ones: any domain whose ``(digest, event count)``
        differs is a :class:`WorkerDesync`."""
        bad = diff_domain_digests(self._barrier_digests, _barrier_digests(replies))
        if bad:
            handle = next(h for h in self.workers if bad[0] in h.domains)
            raise WorkerDesync(
                handle.index,
                handle.domains,
                self._barriers - 1,
                detail=(
                    f"replay digests diverged for domain(s) {bad} after "
                    "rebuild — refusing to resume from an unverifiable "
                    "state"
                ),
            )

    def _reap(self, handle: WorkerHandle, join_timeout_s: float) -> None:
        if handle.conn is not None:
            try:
                handle.conn.close()
            except OSError:  # best-effort close
                pass
            handle.conn = None
        proc = handle.proc
        if proc is None:
            return
        proc.join(timeout=join_timeout_s)
        if proc.is_alive():
            proc.terminate()
            proc.join(timeout=1.0)
        if proc.is_alive():
            # SIGTERM does not reach a SIGSTOPped process; SIGKILL does.
            proc.kill()
            proc.join(timeout=5.0)
        handle.proc = None


def _barrier_digests(replies: List[Any]) -> Dict[int, Tuple[str, int, str]]:
    """The union of the workers' barrier reports' ``{domain: (hexdigest,
    event_count, outcome_hexdigest)}`` (a reply that is no barrier
    report adds nothing)."""
    digests: Dict[int, Tuple[str, int, str]] = {}
    for reply in replies:
        if reply[0] == "barrier":
            digests.update(reply[4])
    return digests
