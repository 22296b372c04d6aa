"""The pipe delay line: a bandwidth queue plus a delay line as data.

The paper's heap-of-pipes scheduler (Sec. 2.2) pays scheduling cost
per *pipe*; this module keeps the per-packet work inside each pipe
off the event heap too. A pipe's bandwidth queue and delay line are
*data*, not events: rows of ``(descriptor, time, ideal)`` that
:meth:`DelayLine.service` drains in runs (one call per pipe per
tick), instead of one heap entry and one callback per packet.

Every value is computed in the same IEEE-double order on every
backend, so the event streams the sanitize machinery hashes are
byte-equal across backends; CI enforces this on the committed
``examples/*.digests.json`` baselines.

The contract:

``admit(descriptor, dequeue_at, ideal_exit)``
    Append to the bandwidth queue. ``dequeue_at`` values are
    non-decreasing per pipe (the pipe's ``_free_at`` is monotone).
``service(cutoff, latency_s) -> (exits, bytes_through)``
    Move every due bandwidth entry (``dequeue_at <= cutoff``) into
    the delay line at ``dequeue_at + latency_s`` — latency is read at
    *service* time, dummynet semantics — then drain the delay-line
    prefix that is due, stopping at the first entry beyond ``cutoff``
    (entries behind it wait even if already due: latency changes can
    make the line non-monotone, so the drain is head-order).
    Sets ``descriptor.ideal_time`` on each exit.
``head_deadline``
    The earliest pending time in either queue (``inf`` when empty).
    Scheduler-facing: read once per offer and per serviced pipe.
``bw_len`` / ``dl_len``
    Occupancy counts (drop-tail admission reads ``bw_len``).
``flush() -> int``
    Release every queued descriptor; returns the number lost.
"""

from __future__ import annotations

from typing import List, Tuple

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

    def service(self, cutoff: float, latency_s: float) -> Tuple[list, int]:
        bw = self._bw
        dl = self._dl
        h = self._bw_head
        n = len(bw)
        while h < n:
            descriptor, dequeue_at, ideal_exit = bw[h]
            if dequeue_at > cutoff:
                break
            dl.append((descriptor, dequeue_at + latency_s, ideal_exit))
            h += 1
        self._bw_head = h = _compact(bw, h)
        exits: List = []
        through = 0
        dh = self._dl_head
        dn = len(dl)
        while dh < dn:
            descriptor, exit_at, ideal_exit = dl[dh]
            if exit_at > cutoff:
                break
            descriptor.ideal_time = ideal_exit
            through += descriptor.packet.size_bytes
            exits.append(descriptor)
            dh += 1
        self._dl_head = dh = _compact(dl, dh)
        head = bw[h][1] if h < len(bw) else INFINITY
        if dh < len(dl) and dl[dh][1] < head:
            head = dl[dh][1]
        self.head_deadline = head
        return exits, through

    def flush(self) -> int:
        lost = self.bw_len + self.dl_len
        for rows, head in ((self._bw, self._bw_head), (self._dl, self._dl_head)):
            for index in range(head, len(rows)):
                rows[index][0].release()
            rows.clear()
        self._bw_head = self._dl_head = 0
        self.head_deadline = INFINITY
        return lost


def _compact(rows: list, head: int) -> int:
    """Drop the consumed prefix of ``rows`` when it is all of the
    list, or long and at least half of it; returns the new head."""
    if head and (head == len(rows) or (head >= _COMPACT_AT and head * 2 >= len(rows))):
        del rows[:head]
        return 0
    return head
