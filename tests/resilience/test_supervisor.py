"""Unit tests for WorkerSupervisor failure typing and recovery.

These drive the supervisor against in-process fakes (no real worker
processes) so each failure mode — crash, hang, remote error, desync,
escalation — is exercised deterministically and fast. The end-to-end
recovery paths over real multiprocess workers live in
``test_scenario_resilience.py``.
"""

import time

import pytest

from repro.resilience import (
    RetryPolicy,
    SupervisionEscalation,
    WorkerCrash,
    WorkerDesync,
    WorkerHang,
    WorkerSupervisor,
)


class FakeConn:
    """Scripted pipe end: yields queued replies, EOFs when empty."""

    def __init__(self, replies=()):
        self.replies = list(replies)
        self.sent = []
        self.closed = False

    def poll(self, timeout=None):
        return bool(self.replies)

    def recv(self):
        if not self.replies:
            raise EOFError("script exhausted")
        item = self.replies.pop(0)
        if isinstance(item, BaseException):
            raise item
        return item

    def send(self, command):
        self.sent.append(command)

    def close(self):
        self.closed = True


class FakeProc:
    def __init__(self, alive=True):
        self._alive = alive
        self.pid = 4242
        self.exitcode = None if alive else -9

    def is_alive(self):
        return self._alive

    def join(self, timeout=None):
        pass

    def terminate(self):
        self._alive = False

    def kill(self):
        self._alive = False


def fast_policy(attempts=2):
    return RetryPolicy(max_attempts=attempts, base_backoff_s=0.0, jitter=0.0)


def make_supervisor(spawn, **kwargs):
    kwargs.setdefault("owned", [[0, 1]])
    kwargs.setdefault("policy", fast_policy())
    kwargs.setdefault("epoch_timeout_s", 0.2)
    kwargs.setdefault("heartbeat_interval_s", 0.05)
    return WorkerSupervisor(spawn, **kwargs)


# ----------------------------------------------------------------------
# Failure classification in _recv
# ----------------------------------------------------------------------

def test_silent_live_worker_is_a_hang_with_missed_heartbeats():
    supervisor = make_supervisor(lambda i: (FakeConn(), FakeProc()))
    handle = supervisor.workers[0]
    handle.conn, handle.proc = FakeConn(), FakeProc(alive=True)
    with pytest.raises(WorkerHang, match="no heartbeats"):
        supervisor._recv(handle)
    assert supervisor.heartbeats_missed > 0


def test_heartbeating_but_unresponsive_worker_is_a_livelock_hang():
    conn = FakeConn([("hb",)] * 100)
    supervisor = make_supervisor(lambda i: (conn, FakeProc()))
    handle = supervisor.workers[0]
    handle.conn, handle.proc = conn, FakeProc(alive=True)
    with pytest.raises(WorkerHang, match="livelock"):
        supervisor._recv(handle)


def test_dead_process_is_a_crash_not_a_hang():
    supervisor = make_supervisor(lambda i: (FakeConn(), FakeProc()))
    handle = supervisor.workers[0]
    handle.conn, handle.proc = FakeConn(), FakeProc(alive=False)
    with pytest.raises(WorkerCrash, match="process died"):
        supervisor._recv(handle)


def test_eof_is_a_crash():
    conn = FakeConn([EOFError("peer gone")])
    supervisor = make_supervisor(lambda i: (conn, FakeProc()))
    handle = supervisor.workers[0]
    handle.conn, handle.proc = conn, FakeProc(alive=True)
    with pytest.raises(WorkerCrash, match="pipe closed"):
        supervisor._recv(handle)


def test_remote_error_reply_carries_the_worker_traceback():
    conn = FakeConn([
        ("error", {"worker": 0, "epoch": 7, "traceback": "Traceback: boom"}),
    ])
    supervisor = make_supervisor(lambda i: (conn, FakeProc()))
    handle = supervisor.workers[0]
    handle.conn, handle.proc = conn, FakeProc(alive=True)
    with pytest.raises(WorkerCrash) as info:
        supervisor._recv(handle)
    assert info.value.epoch == 7
    assert "Traceback: boom" in str(info.value)
    assert "worker traceback" in str(info.value)


def test_heartbeats_are_swallowed_before_the_real_reply():
    conn = FakeConn([("hb",), ("hb",), ("done", {}, [], {})])
    supervisor = make_supervisor(lambda i: (conn, FakeProc()))
    handle = supervisor.workers[0]
    handle.conn, handle.proc = conn, FakeProc(alive=True)
    assert supervisor._recv(handle)[0] == "done"


class PacedConn(FakeConn):
    """Scripted pipe end whose replies arrive one per ``pace_s``, on a
    fixed schedule however fast they are read."""

    def __init__(self, replies, pace_s):
        super().__init__(replies)
        self.pace_s = pace_s
        self.next_at = time.monotonic() + pace_s

    def poll(self, timeout=None):
        wait = self.next_at - time.monotonic()
        if not self.replies or wait > timeout:
            time.sleep(timeout)
            return False
        time.sleep(max(wait, 0.0))
        return True

    def recv(self):
        self.next_at += self.pace_s
        return super().recv()


def test_whole_run_outlasts_the_timeout_while_epochs_advance():
    """``run_all`` waits for a whole run; beats that report finished
    epochs restart the deadline, so a run three times longer than the
    epoch timeout completes."""
    beats = [("hb", epochs) for epochs in range(1, 21)]
    conn = PacedConn(beats + [("done", {0: 1.0}, (20, 0), {})], pace_s=0.03)
    supervisor = make_supervisor(lambda i: (conn, FakeProc()))
    handle = supervisor.workers[0]
    handle.conn, handle.proc = conn, FakeProc(alive=True)
    started = time.monotonic()
    assert supervisor.run_all(1.0)[2] == (20, 0)
    assert time.monotonic() - started > 3 * supervisor.epoch_timeout_s
    assert supervisor.retries == 0


def test_replies_queued_during_a_stall_on_this_side_are_read_first():
    """The parent stalls past the deadline (a long GC pause) while the
    worker's progress beats and its reply queue up: they are read
    before a hang is declared."""

    class StallingConn(FakeConn):
        def recv(self):
            reply = super().recv()
            if reply == ("hb", 1):
                time.sleep(0.3)
            return reply

    conn = StallingConn([("hb", 1), ("hb", 2), ("done", {0: 1.0}, (2, 0), {})])
    supervisor = make_supervisor(lambda i: (conn, FakeProc()))
    handle = supervisor.workers[0]
    handle.conn, handle.proc = conn, FakeProc(alive=True)
    assert supervisor.run_all(1.0)[2] == (2, 0)
    assert supervisor.retries == 0


def test_beats_without_epoch_progress_are_a_livelock_hang():
    conn = PacedConn([("hb", 3)] * 40, pace_s=0.03)
    supervisor = make_supervisor(lambda i: (conn, FakeProc()))
    handle = supervisor.workers[0]
    handle.conn, handle.proc = conn, FakeProc(alive=True)
    with pytest.raises(WorkerHang, match="livelock"):
        supervisor._recv(handle)
    assert conn.replies  # gave up long before the beats ran out


# ----------------------------------------------------------------------
# Typed failure metadata
# ----------------------------------------------------------------------

def test_failures_carry_worker_domains_and_epoch():
    failure = WorkerCrash(3, [6, 7], 12, detail="gone")
    assert failure.worker == 3
    assert failure.domains == [6, 7]
    assert failure.epoch == 12
    message = str(failure)
    assert "worker 3" in message and "[6, 7]" in message and "epoch 12" in message
    assert WorkerHang.kind == "hung"
    assert WorkerDesync.kind == "desynchronized"


# ----------------------------------------------------------------------
# Recovery: group restart + barrier replay + escalation
# ----------------------------------------------------------------------

def scripted_launches(*scripts):
    """A spawn whose successive launches get the given reply scripts
    (live processes); returns the spawn and the conns it handed out."""
    conns = [FakeConn(script) for script in scripts]
    queue = list(conns)
    return (lambda index: (queue.pop(0), FakeProc())), conns


def barrier(epoch, digests, routed=0):
    return ("barrier", epoch, 0.1 * (epoch + 1), routed, digests)


@pytest.fixture
def fake_wait(monkeypatch):
    """A multi-worker wait over fake pipe ends (the real one selects on
    file descriptors)."""
    monkeypatch.setattr(
        "repro.resilience.supervisor._wait",
        lambda conns, timeout: [conn for conn in conns if conn.poll(0)],
    )


def crash_after_two_barriers(replayed_barrier_1, policy=None):
    """Worker 0 of a 2-worker observed run dies when released from
    barrier 1; the group restart replays barriers 0 and 1 (the second
    with ``replayed_barrier_1``'s digests for worker 0) and the
    in-flight barrier 2. Returns (supervisor, first launches,
    relaunches). Needs the ``fake_wait`` fixture."""
    d0 = {0: ("a0", 3)}
    d1 = {1: ("b0", 4)}
    spawn, conns = scripted_launches(
        [("ready",), barrier(0, d0), barrier(1, {0: ("a1", 7)}),
         EOFError("killed")],
        [("ready",), barrier(0, d1), barrier(1, {1: ("b1", 8)})],
        [("ready",), barrier(0, d0), barrier(1, replayed_barrier_1),
         barrier(2, {0: ("a2", 9)})],
        [("ready",), barrier(0, d1), barrier(1, {1: ("b1", 8)}),
         barrier(2, {1: ("b2", 9)})],
    )
    supervisor = make_supervisor(
        spawn, owned=[[0], [1]], policy=policy or fast_policy()
    )
    supervisor.start()
    assert supervisor.run_epoch(1.0)[1] == 0
    assert supervisor.run_epoch(1.0)[1] == 1
    return supervisor, conns[:2], conns[2:]


def test_recovery_replays_observed_barriers_and_resends_inflight_command(
    fake_wait,
):
    """After a crash every worker is relaunched and must see: ready
    handshake, the run command, one release per barrier observed
    before the crash, then the in-flight release again — whose replies
    are what the caller gets."""
    supervisor, first, relaunched = crash_after_two_barriers({0: ("a1", 7)})
    report = supervisor.run_epoch(1.0)
    assert report[0] == "barrier" and report[1] == 2
    assert report[4] == {0: ("a2", 9), 1: ("b2", 9)}
    assert supervisor.workers_restarted == 2
    assert supervisor.retries == 1
    run = ("run", 1.0, True)
    for conn in first:
        assert conn.sent == [run, ("go",), ("go",)]
    for conn in relaunched:
        # Replay first (run, release barrier 0), then the in-flight
        # release of barrier 1, in order.
        assert conn.sent == [run, ("go",), ("go",)]


def test_replay_digest_mismatch_is_a_desync(fake_wait):
    supervisor, _, _ = crash_after_two_barriers(
        {0: ("DIFFERENT", 7)}, policy=fast_policy(attempts=1)
    )
    with pytest.raises(SupervisionEscalation) as info:
        supervisor.run_epoch(1.0)
    assert isinstance(info.value.last, WorkerDesync)
    assert info.value.last.worker == 0
    assert info.value.last.epoch == 1


def test_replay_event_count_mismatch_is_a_desync(fake_wait):
    supervisor, _, _ = crash_after_two_barriers(
        {0: ("a1", 99)}, policy=fast_policy(attempts=1)
    )
    with pytest.raises(SupervisionEscalation) as info:
        supervisor.run_epoch(1.0)
    assert isinstance(info.value.last, WorkerDesync)


def test_escalation_counts_every_attempt_and_carries_counters():
    """A spawn that always dies exhausts the retry budget; the
    escalation must record the attempts and expose the supervisor's
    counters for the degraded run's report."""
    supervisor = make_supervisor(
        lambda i: (FakeConn(), FakeProc(alive=False)),
        policy=fast_policy(attempts=3),
    )
    with pytest.raises(SupervisionEscalation) as info:
        supervisor.start()
    escalation = info.value
    assert escalation.attempts == 3
    assert supervisor.retries == 3
    assert escalation.counters["retries"] == 3
    assert escalation.counters["workers_restarted"] == 3
    assert "workers_restarted" in escalation.counters
    assert "heartbeats_missed" in escalation.counters


def test_shutdown_reaps_and_closes_everything():
    conn, proc = FakeConn(), FakeProc(alive=True)
    supervisor = make_supervisor(lambda i: (conn, proc))
    handle = supervisor.workers[0]
    handle.conn, handle.proc = conn, proc
    supervisor.shutdown()
    assert conn.closed
    assert not proc.is_alive()
    assert handle.proc is None and handle.conn is None
