"""The pipe delay line: a bandwidth queue plus a delay line as data.

The paper's heap-of-pipes scheduler (Sec. 2.2) pays scheduling cost
per *pipe*; this module keeps the per-packet work inside each pipe
off the event heap too. A pipe's bandwidth queue and delay line are
*data*, not events: rows of ``(descriptor, time, ideal)`` that
:meth:`DelayLine.drain` drains in runs (one call per serviced pipe
per tick), instead of one heap entry and one callback per packet.

Every value is computed in the same IEEE-double order on every
backend, so the event streams the sanitize machinery hashes are
byte-equal across backends; CI enforces this on the committed
``examples/*.digests.json`` baselines.

The contract:

``admit(descriptor, dequeue_at, ideal_exit)``
    Append to the bandwidth queue. ``dequeue_at`` values are
    non-decreasing per pipe (the pipe's ``_free_at`` is monotone).
``drain(pipe, cutoff) -> exits``
    Move every due bandwidth entry (``dequeue_at <= cutoff``) into
    the delay line at ``dequeue_at + pipe.latency_s`` — latency is
    read at *service* time, dummynet semantics — then drain the
    delay-line prefix that is due, stopping at the first entry beyond
    ``cutoff`` (entries behind it wait even if already due: latency
    changes can make the line non-monotone, so the drain is
    head-order). Sets ``descriptor.ideal_time`` on each exit, adds
    the exits to the pipe's ``departures``, ``bytes_through`` and
    (for a run of two or more) ``batch_departures``, compacts both
    lists and refreshes :attr:`head_deadline` — the whole service of
    one pipe in one call.
``head_deadline``
    The earliest pending time in either queue (``inf`` when empty).
    Scheduler-facing: read once per offer and per serviced pipe.
``bw_len`` / ``dl_len``
    Occupancy counts (drop-tail admission reads ``bw_len``).
``flush(outcomes=None) -> int``
    Release every queued descriptor (folding each into ``outcomes``,
    an armed outcome digest, as a down drop); returns the number lost.
"""

from __future__ import annotations

from typing import List

from repro.core.monitor import DROP_DOWN, record_outcome

INFINITY = float("inf")

#: Compact a consumed row prefix once it reaches this length *and*
#: at least half the list (amortized O(1) per packet). A queue that
#: drains empty is cleared at once, so an idle pipe holds no exited
#: descriptors.
_COMPACT_AT = 512


class DelayLine:
    """Bandwidth queue and delay line as two row lists with head
    indices.

    Rows are ``(descriptor, time, ideal_exit)`` tuples; the consumed
    prefix of each list is skipped by its head index rather than
    popped. The earliest pending time is cached in
    :attr:`head_deadline` (admission only ever appends later times,
    so a min-update keeps it exact) — the scheduler reads an
    attribute instead of peeking two queues.
    """

    __slots__ = ("_bw", "_bw_head", "_dl", "_dl_head", "head_deadline")

    def __init__(self):
        # (descriptor, dequeue_time, ideal_exit_time)
        self._bw: list = []
        self._bw_head = 0
        # (descriptor, exit_time, ideal_exit_time)
        self._dl: list = []
        self._dl_head = 0
        self.head_deadline = INFINITY

    @property
    def bw_len(self) -> int:
        return len(self._bw) - self._bw_head

    @property
    def dl_len(self) -> int:
        return len(self._dl) - self._dl_head

    def admit(self, descriptor, dequeue_at: float, ideal_exit: float) -> None:
        self._bw.append((descriptor, dequeue_at, ideal_exit))
        if dequeue_at < self.head_deadline:
            self.head_deadline = dequeue_at

    def drain(self, pipe, cutoff: float) -> list:
        # Lists only grow between drains, so only a list that rows
        # were taken from can need compacting (see _COMPACT_AT).
        bw = self._bw
        h = self._bw_head
        n = len(bw)
        dl = self._dl
        if h < n and bw[h][1] <= cutoff:
            latency_s = pipe.latency_s
            append = dl.append
            while h < n:
                descriptor, dequeue_at, ideal_exit = bw[h]
                if dequeue_at > cutoff:
                    break
                append((descriptor, dequeue_at + latency_s, ideal_exit))
                h += 1
            if h == n:
                bw.clear()
                h = n = 0
            elif h >= _COMPACT_AT and h * 2 >= n:
                del bw[:h]
                n -= h
                h = 0
            self._bw_head = h
        exits: List = []
        dh = self._dl_head
        dn = len(dl)
        if dh < dn and dl[dh][1] <= cutoff:
            through = 0
            while dh < dn:
                descriptor, exit_at, ideal_exit = dl[dh]
                if exit_at > cutoff:
                    break
                descriptor.ideal_time = ideal_exit
                through += descriptor.packet.size_bytes
                exits.append(descriptor)
                dh += 1
            if dh == dn:
                dl.clear()
                dh = dn = 0
            elif dh >= _COMPACT_AT and dh * 2 >= dn:
                del dl[:dh]
                dn -= dh
                dh = 0
            self._dl_head = dh
            departed = len(exits)
            pipe.departures += departed
            pipe.bytes_through += through
            if departed > 1:
                pipe.batch_departures += departed
        head = bw[h][1] if h < n else INFINITY
        if dh < dn and dl[dh][1] < head:
            head = dl[dh][1]
        self.head_deadline = head
        return exits

    def flush(self, outcomes=None) -> int:
        lost = self.bw_len + self.dl_len
        for rows, head in ((self._bw, self._bw_head), (self._dl, self._dl_head)):
            for index in range(head, len(rows)):
                descriptor = rows[index][0]
                if outcomes is not None:
                    record_outcome(outcomes, DROP_DOWN, descriptor.packet)
                descriptor.release()
            rows.clear()
        self._bw_head = self._dl_head = 0
        self.head_deadline = INFINITY
        return lost
