"""WorkerSupervisor: heartbeats, failure typing, deterministic recovery.

The multiprocess backend (:mod:`repro.engine.parallel`) drives its
workers one of two ways.

On the per-epoch loop the parent is a lockstep epoch barrier: it
broadcasts ``("epoch", windows, mail_frame)`` commands and every worker
must answer with ``("done", next_times, outbox, digests)``. That
protocol makes supervision simple — a worker is healthy iff it answers
the current command within the epoch timeout — and makes recovery
*provably* correct:

* builds are deterministic (the ``repro.check`` contract), so a
  respawned worker rebuilt from the same picklable ``ScenarioSpec`` is
  an identical object graph;
* the parent already stores, per epoch, exactly the inputs a worker
  consumed (the epoch window plus that worker's cross-domain message
  slice) because *it* produced them; replaying that history drives the
  rebuilt worker through the same event stream event-for-event;
* every ``done`` reply carries streaming per-domain digests, so after
  replay the supervisor compares the rebuilt worker's digests against
  the ones recorded before the crash. A mismatch is a
  :class:`WorkerDesync` — recovery refuses to continue from a state it
  cannot prove equal to the pre-crash one.

Failures are typed: :class:`WorkerCrash` (process died / pipe broke /
worker reported a traceback), :class:`WorkerHang` (alive but silent
past the epoch timeout — the heartbeat thread distinguishes a wedged
process from a livelocked one), :class:`WorkerDesync` (replay digest
mismatch). Each carries the worker id, its domain group, the epoch
index, and the original traceback when one exists.

On the worker-driven loop (:meth:`WorkerSupervisor.run_all`) one
``("run", until)`` command sends every worker through the whole epoch
loop, exchanging mail with its peers directly; heartbeats carry each
worker's epoch count, so the epoch timeout still bounds one epoch. The
workers depend on each other, so any failure stops the whole group,
which is respawned (with a fresh peer mesh) and re-issued the run: the
deterministic rerun is the replay.

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

    __slots__ = (
        "index",
        "domains",
        "conn",
        "proc",
        "completed",
        "progress",
        "last_digests",
        "next_times",
    )

    def __init__(self, index: int, domains: Sequence[int]) -> None:
        self.index = index
        self.domains = list(domains)
        self.conn = None
        self.proc = None
        #: Epochs this worker has completed (answered "done" for).
        self.completed = 0
        #: Epochs its heartbeats report finished in a ``run`` command.
        self.progress = 0
        #: ``{domain: (hexdigest, event_count)}`` from the latest
        #: completed epoch — the recovery ground truth.
        self.last_digests: Optional[Dict[int, Tuple[str, int]]] = None
        self.next_times: Dict[int, float] = {}

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
    """Drives a fleet of epoch workers with recovery and replay.

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
        #: Per-epoch command history: ``(payload, frames)`` with one
        #: mail frame per worker — the full replay input. The payload
        #: (the per-domain window vector) is broadcast; frames are
        #: per-worker opaque bytes the executor encoded (kept as-is so
        #: replay resends byte-identical commands without re-pickling).
        self._history: List[Tuple[Any, List[Any]]] = []
        #: The worker-driven ``run`` command once issued: a group
        #: restart during ``finish`` must rerun it first.
        self._run: Optional[Tuple[str, Any]] = None
        # Counters surfaced as resilience.* metrics.
        self.heartbeats_missed = 0
        self.workers_restarted = 0
        self.retries = 0

    # -- lifecycle -----------------------------------------------------

    @property
    def epoch_index(self) -> int:
        """Index of the epoch in flight: the recorded barriers on the
        per-epoch loop, the furthest heartbeat-reported epoch on a
        worker-driven run."""
        return max(len(self._history), *(h.progress for h in self.workers))

    def start(self) -> Dict[int, float]:
        """Spawn every worker, await readiness, return merged
        per-domain next event times. A worker that fails to come up
        restarts the whole group: nothing has run yet, and workers of a
        worker-driven run share one peer mesh."""
        for handle in self.workers:
            self._launch(handle)
        try:
            for handle in self.workers:
                self._ready(handle)
        except WorkerFailure as failure:
            self._restart_group(failure)
        next_times: Dict[int, float] = {}
        for handle in self.workers:
            next_times.update(handle.next_times)
        return next_times

    def run_epoch(self, payload: Any, frames: List[Any]):
        """Broadcast one epoch to every worker; recover any that fail.

        ``payload`` is shared by all workers (the per-domain window
        vector); ``frames[i]`` is worker ``i``'s private mail frame.
        Returns the list of ``("done", next_times, outbox_frame,
        digests)`` replies, indexed by worker.
        """
        self._history.append((payload, frames))
        replies = self._broadcast([("epoch", payload, frame) for frame in frames])
        for handle, reply in zip(self.workers, replies):
            handle.completed += 1
            handle.next_times = dict(reply[1])
            handle.last_digests = dict(reply[3])
        return replies

    def run_all(self, until, timeout_s: Optional[float] = None):
        """Worker-driven loop: one ``("run", until)`` command has every
        worker drive its own epoch loop to ``until``, swapping mail and
        next-event times with its peers — no per-epoch parent barrier.

        The epoch history stays empty. Any failure stops the whole
        group, respawns it and re-issues the run (see
        :meth:`_restart_group`); the deterministic rerun is the replay.
        The wait is bounded per finished epoch, not for the whole run
        (see :meth:`_gather`): a long healthy run completes, while a
        wedged or livelocked worker still raises :class:`WorkerHang`.
        Returns the workers' ``("done", next_times, (epochs,
        messages_routed), digests)`` replies merged into one: the
        union of their per-domain maps, the common epoch count and the
        summed message count.
        """
        command = self._run = ("run", until)
        try:
            replies = self._issue(command, timeout_s)
        except WorkerFailure as failure:
            replies = self._restart_group(failure, command, timeout_s=timeout_s)
        next_times: Dict[int, float] = {}
        digests: Dict[int, Tuple[str, int]] = {}
        epochs = routed = 0
        for handle, reply in zip(self.workers, replies):
            handle.next_times = dict(reply[1])
            handle.last_digests = dict(reply[3])
            next_times.update(reply[1])
            digests.update(reply[3])
            epochs = max(epochs, reply[2][0])
            routed += reply[2][1]
        return ("done", next_times, (epochs, routed), digests)

    def finish(self, until) -> List[dict]:
        """Send the final command; returns per-worker stats dicts."""
        command = ("finish", until)
        if self._run is None:
            replies = self._broadcast([command] * len(self.workers))
        else:
            try:
                replies = self._issue(command)
            except WorkerFailure as failure:
                replies = self._restart_group(failure, self._run, command)
        return [reply[1] for reply in replies]

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
        """Deliver ``sig`` to a worker — the chaos-injection hook."""
        handle = self.workers[worker]
        if handle.proc is not None and handle.proc.pid is not None:
            os.kill(handle.proc.pid, sig)

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
        handle.next_times = dict(reply[1])

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

    def _broadcast(self, commands: List[Any]) -> List[Any]:
        """Send ``commands[i]`` to worker ``i``, then collect every
        reply; a failed worker is recovered and re-issued its command.
        All workers are told before any is awaited, so they compute
        in parallel."""
        replies: List[Any] = [None] * len(self.workers)
        for handle in self.workers:
            command = commands[handle.index]
            try:
                self._send(handle, command)
            except WorkerFailure as failure:
                replies[handle.index] = self._handle_failure(
                    handle, failure, resend=command
                )
        for handle in self.workers:
            if replies[handle.index] is not None:
                continue
            try:
                replies[handle.index] = self._recv(handle)
            except WorkerFailure as failure:
                replies[handle.index] = self._handle_failure(
                    handle, failure, resend=commands[handle.index]
                )
        return replies

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
        reply; any failure propagates (the group is recovered whole)."""
        for handle in self.workers:
            self._send(handle, command)
        return self._gather(self.workers, timeout_s)

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
        restarts its deadline, so the timeout bounds one epoch: a
        ``("run", until)`` command that keeps finishing epochs is waited
        out, while a worker that beats without finishing one (livelock)
        still hangs. A worker serving per-epoch commands never advances
        the count.
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
        """A heartbeat reported ``epochs`` finished epochs of a ``run``
        command."""
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

    def _handle_failure(self, handle: WorkerHandle, failure: WorkerFailure, resend):
        """Recover ``handle`` alone per the retry policy: respawn it,
        replay the epoch history, and re-issue ``resend`` (the in-flight
        command, or ``None`` for none); returns its reply."""

        def attempt():
            self._respawn(handle)
            self._replay(handle)
            if resend is None:
                return None
            self._send(handle, resend)
            return self._recv(handle)

        return self._retry(failure, attempt)

    def _restart_group(self, failure: WorkerFailure, *commands,
                       timeout_s: Optional[float] = None):
        """Recover the whole group per the retry policy: stop every
        worker, respawn all in index order (the executor gives each
        launch a fresh peer mesh), then issue ``commands`` in turn to
        every worker. Returns the last command's replies (``None``
        without commands)."""

        def attempt():
            for handle in self.workers:
                self._reap(handle, join_timeout_s=0.0)
            for handle in self.workers:
                self.workers_restarted += 1
                self._launch(handle)
            for handle in self.workers:
                self._ready(handle)
            replies = None
            for command in commands:
                replies = self._issue(command, timeout_s)
            return replies

        return self._retry(failure, attempt)

    def _respawn(self, handle: WorkerHandle) -> None:
        self._reap(handle, join_timeout_s=0.0)
        self.workers_restarted += 1
        self._launch(handle)
        self._ready(handle)

    def _replay(self, handle: WorkerHandle) -> None:
        """Drive a freshly rebuilt worker back to the last completed
        epoch barrier, then digest-verify it against pre-crash state.

        Replayed outboxes are discarded — the parent routed them the
        first time around — and the digests of the final replayed epoch
        must match ``handle.last_digests`` exactly, or recovery stops
        with :class:`WorkerDesync`.
        """
        digests: Optional[Dict[int, Tuple[str, int]]] = None
        for payload, frames in self._history[: handle.completed]:
            self._send(
                handle, ("epoch", payload, frames[handle.index])
            )
            reply = self._recv(handle)
            handle.next_times = dict(reply[1])
            digests = dict(reply[3])
        if handle.completed == 0 or handle.last_digests is None:
            return
        expected = {d: h for d, (h, _) in handle.last_digests.items()}
        actual = {d: h for d, (h, _) in (digests or {}).items()}
        bad = diff_domain_digests(expected, actual)
        counts_expected = {d: n for d, (_, n) in handle.last_digests.items()}
        counts_actual = {d: n for d, (_, n) in (digests or {}).items()}
        if not bad and counts_expected != counts_actual:
            bad = sorted(
                d
                for d in counts_expected
                if counts_expected.get(d) != counts_actual.get(d)
            )
        if bad:
            raise WorkerDesync(
                handle.index,
                handle.domains,
                handle.completed - 1,
                detail=(
                    "replay digests diverged for domain(s) "
                    f"{bad} after rebuild — refusing to resume from an "
                    "unverifiable state"
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
