"""Delay-line contract tests.

Three layers:

* boundary semantics of :class:`PipeScheduler` + :class:`Pipe` under
  batching — tick-boundary deadlines, stale drains after ``flush()``,
  same-tick cross-pipe ordering, and drop-tail admission while a
  batch is in flight;
* randomized parity against a plain deque model of the row
  semantics — the same exits, the same IEEE-double exit times, the
  same ``head_deadline`` floats, occupancies and flush counts on the
  same admission schedule, long enough to cross compaction;
* memory — a drained line holds no exited descriptors.
"""

import gc
import random
import types
from collections import deque

import pytest

from repro.core import kernel
from repro.core.kernel import DelayLine
from repro.core.packet import PacketDescriptor
from repro.core.pipe import INFINITY, Pipe
from repro.core.scheduler import PipeScheduler
from repro.net.packet import Packet


@pytest.fixture(params=["scalar"])
def pipe(request):
    """Pipe factory. The id names the row semantics the one delay
    line keeps: ``(descriptor, time, ideal)`` rows, latency frozen at
    service time, head-order drain."""

    def make(pipe_id=0, bw=1e6, latency=0.0, queue_limit=50):
        return Pipe(pipe_id, bw, latency, queue_limit=queue_limit)

    return make


def descriptor(size=1000):
    return PacketDescriptor(Packet(0, 1, size, "udp"), (), 0, 0.0)


# ----------------------------------------------------------------------
# Tick-boundary deadlines
# ----------------------------------------------------------------------

def test_deadline_exactly_on_tick_boundary_matures_at_that_tick(pipe):
    # 1250 B at 1 Mb/s = 10 ms = exactly 100 ticks of 1e-4: the
    # deadline falls on a tick boundary and must mature at that wake,
    # not re-arm a same-instant wake.
    scheduler = PipeScheduler(tick_s=1e-4)
    p = pipe()
    d = descriptor(1250)
    p.arrival(d, 0.0, 0.0)
    scheduler.notify(p)
    wake = scheduler.next_wake()
    assert wake == pytest.approx(0.01)
    assert scheduler.collect(wake) == [(p, [d])]
    assert scheduler.next_wake() == INFINITY


def test_deadline_with_float_noise_above_boundary_still_matures(pipe):
    scheduler = PipeScheduler(tick_s=1e-4)
    p = pipe()
    # Force a head deadline a hair above the 693rd tick, as float
    # error produces in long runs; the slack in collect() must let
    # the wake at the quantized boundary drain it.
    p.arrival(descriptor(1250), 0.0593000000000001, 0.0593000000000001)
    scheduler.notify(p)
    wake = scheduler.next_wake()
    serviced = scheduler.collect(wake)
    assert [len(exits) for _, exits in serviced] == [1]


# ----------------------------------------------------------------------
# Stale entries after flush()
# ----------------------------------------------------------------------

def test_flush_orphans_heap_entry_and_collect_drains_it(pipe):
    scheduler = PipeScheduler(tick_s=1e-4)
    p = pipe()
    p.arrival(descriptor(1250), 0.0, 0.0)
    scheduler.notify(p)
    assert scheduler.pending_pipes == 1
    lost = p.flush()
    assert lost == 1
    assert p._line.head_deadline == INFINITY
    # The heap entry is now stale; collect must discard it without
    # servicing and leave the heap empty.
    assert scheduler.collect(1.0) == []
    assert scheduler.pending_pipes == 0
    assert scheduler.next_wake() == INFINITY


def test_admission_after_flush_starts_a_fresh_line(pipe):
    scheduler = PipeScheduler(tick_s=1e-4)
    p = pipe()
    p.arrival(descriptor(1250), 0.0, 0.0)
    scheduler.notify(p)
    p.flush()
    d = descriptor(1250)
    assert p.arrival(d, 0.02, 0.02)
    scheduler.notify(p)
    serviced = scheduler.collect(scheduler.next_wake())
    assert serviced == [(p, [d])]


# ----------------------------------------------------------------------
# Same-tick, cross-pipe interleaving
# ----------------------------------------------------------------------

def test_same_tick_departures_service_in_deadline_order(pipe):
    # Three pipes with deadlines inside one tick: collect must return
    # them in deadline order (the order downstream seq assignment —
    # and so the digest — depends on), with each pipe's run intact.
    scheduler = PipeScheduler(tick_s=1e-3)
    fast = pipe(pipe_id=0, bw=1e9)
    mid = pipe(pipe_id=1, bw=4e7)
    slow = pipe(pipe_id=2, bw=2e7)
    batches = {}
    for p in (slow, fast, mid):  # notify order != deadline order
        batches[p.id] = [descriptor(1250), descriptor(1250)]
        for d in batches[p.id]:
            p.arrival(d, 0.0, 0.0)
        scheduler.notify(p)
    serviced = scheduler.collect(1e-3)
    assert [p.id for p, _ in serviced] == [0, 1, 2]
    for p, exits in serviced:
        assert exits == batches[p.id]


def test_batch_preserves_fifo_within_pipe(pipe):
    p = pipe(bw=1e8)
    admitted = [descriptor(1250) for _ in range(16)]
    for d in admitted:
        p.arrival(d, 0.0, 0.0)
    exits = p.service(1.0)
    assert exits == admitted


# ----------------------------------------------------------------------
# Drop-tail admission while a batch is in flight
# ----------------------------------------------------------------------

def test_droptail_admission_mid_batch(pipe):
    # queue_limit counts the bandwidth queue only. Fill it, verify
    # the overflow drop, then service part of the backlog and verify
    # the freed slots admit again — bw_len must be live mid-batch.
    p = pipe(bw=1e6, queue_limit=4)
    for _ in range(4):
        assert p.arrival(descriptor(1250), 0.0, 0.0)
    assert not p.arrival(descriptor(1250), 0.0, 0.0)
    assert p.drops_overflow == 1
    assert p.backlog_pkts == 4
    # Two packets dequeue by t=0.02 (10 ms serialization each).
    p.service(0.02)
    assert p.backlog_pkts == 2
    assert p.arrival(descriptor(1250), 0.02, 0.02)
    assert p.backlog_pkts == 3


# ----------------------------------------------------------------------
# Randomized parity against a deque model
# ----------------------------------------------------------------------

class DequeModel:
    """The row semantics, one pop per packet: the yardstick the delay
    line must match float for float."""

    def __init__(self):
        self.bw, self.dl = deque(), deque()

    bw_len = property(lambda self: len(self.bw))
    dl_len = property(lambda self: len(self.dl))

    @property
    def head_deadline(self):
        deadline = self.bw[0][1] if self.bw else INFINITY
        return self.dl[0][1] if self.dl and self.dl[0][1] < deadline else deadline

    def admit(self, descriptor, dequeue_at, ideal_exit):
        self.bw.append((descriptor, dequeue_at, ideal_exit))

    def service(self, cutoff, latency_s):
        while self.bw and self.bw[0][1] <= cutoff:
            descriptor, dequeue_at, ideal_exit = self.bw.popleft()
            self.dl.append((descriptor, dequeue_at + latency_s, ideal_exit))
        exits = []
        while self.dl and self.dl[0][1] <= cutoff:
            descriptor, _exit_at, descriptor.ideal_time = self.dl.popleft()
            exits.append(descriptor)
        return exits, sum(d.packet.size_bytes for d in exits)

    def flush(self):
        lost = len(self.bw) + len(self.dl)
        self.bw.clear()
        self.dl.clear()
        return lost


def _drive(line, schedule):
    """Run one admission/service/flush schedule against a delay line
    and return every observable: exit ids, exit ideal times, through
    bytes, flush counts, and head deadline plus occupancy after every
    step."""
    observed = []
    for op in schedule:
        if op[0] == "admit":
            _, ident, size, dequeue_at, ideal_exit = op
            d = descriptor(size)
            d.packet.id = ident
            line.admit(d, dequeue_at, ideal_exit)
        elif op[0] == "flush":
            observed.append(("flush", line.flush()))
        else:
            _, cutoff, latency = op
            exits, through = line.service(cutoff, latency)
            observed.append((
                [e.packet.id for e in exits],
                [e.ideal_time for e in exits],
                through,
            ))
        observed.append((line.head_deadline, line.bw_len, line.dl_len))
    return observed


def _random_schedule(rng, ops=3000, bandwidth_bps=3e7, queue_limit=50):
    """A near-saturated pipe: drop-tail bounds the backlog, so the
    bandwidth queue stays non-empty across long runs of dequeues and
    both row lists cross the compaction threshold."""
    schedule = []
    clock = 0.0
    free_at = 0.0
    backlog = deque()
    ident = 0
    for _ in range(ops):
        clock += rng.random() * 2e-4
        while backlog and backlog[0] <= clock:
            backlog.popleft()
        roll = rng.random()
        if roll < 0.0005:
            schedule.append(("flush",))
            free_at = 0.0
            backlog.clear()
        elif roll < 0.6 and len(backlog) < queue_limit:
            size = rng.choice((40, 576, 1500))
            free_at = max(free_at, clock) + size * 8.0 / bandwidth_bps
            backlog.append(free_at)
            schedule.append(("admit", ident, size, free_at, free_at + 1e-3))
            ident += 1
        else:
            latency = rng.choice((0.0, 1e-3, 5e-3))
            schedule.append(("service", clock, latency))
    schedule.append(("service", clock + 10.0, 0.0))
    return schedule


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_kernels_agree_on_randomized_schedules(seed, monkeypatch):
    compactions = []
    compact = kernel._compact

    def spy(rows, head):
        if 0 < head < len(rows) and compact(list(rows), head) == 0:
            compactions.append(head)
        return compact(rows, head)

    monkeypatch.setattr(kernel, "_compact", spy)
    schedule = _random_schedule(random.Random(seed))
    assert len(schedule) > 2000
    observed = _drive(DelayLine(), schedule)
    assert compactions, "schedule never crossed the compaction threshold"
    assert observed == _drive(DequeModel(), schedule)


def test_flush_counts_agree_across_kernels():
    counts = []
    for line in (DelayLine(), DequeModel()):
        for i in range(7):
            line.admit(descriptor(100), 0.001 * (i + 1), 0.001 * (i + 1))
        line.service(0.0035, 0.0)
        counts.append((line.flush(), line.bw_len, line.dl_len,
                       line.head_deadline))
    assert counts[0] == counts[1] == (4, 0, 0, INFINITY)


# ----------------------------------------------------------------------
# Memory: exited descriptors are released
# ----------------------------------------------------------------------

def _reachable(root):
    """Ids of every object reachable from ``root`` through instances
    and containers (classes, modules and functions are not followed)."""
    seen = set()
    stack = [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(
            obj, (type, types.ModuleType, types.FunctionType)
        ):
            continue
        seen.add(id(obj))
        stack.extend(gc.get_referents(obj))
    return seen


def test_drained_line_holds_no_exited_descriptors(pipe):
    # More than the compaction threshold, drained one exit per
    # service call, so no single drain consumes the whole line.
    p = pipe(bw=1e8, latency=1e-3, queue_limit=1000)
    admitted = [descriptor(1250) for _ in range(kernel._COMPACT_AT + 88)]
    for d in admitted:
        assert p.arrival(d, 0.0, 0.0)
    exited = []
    while p.in_flight:
        exits = p.service(p.next_deadline())
        assert len(exits) <= 1
        exited.extend(exits)
    assert exited == admitted
    held = _reachable(p)
    assert not [d for d in admitted if id(d) in held]
