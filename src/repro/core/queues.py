"""Queueing disciplines for pipe bandwidth queues.

Each pipe has an associated packet queue and queueing discipline;
"each pipe is FIFO by default" with drop-tail overflow, and RED is
available as in dummynet [18].
"""

from __future__ import annotations

import math
import random
from typing import Optional


class DropTailQueue:
    """FIFO drop-tail: admit while the backlog is below the limit."""

    def admit(self, backlog_pkts: int, limit_pkts: int, now: float, rng) -> bool:
        return backlog_pkts < limit_pkts

    def reset(self) -> None:
        """No state to reset."""

    def __repr__(self) -> str:
        return "<DropTail>"


#: The drop-tail discipline every FIFO pipe shares: it keeps no state,
#: so one instance serves them all. RED keeps an EWMA per pipe.
DROP_TAIL = DropTailQueue()


class REDQueue:
    """Random Early Detection (Floyd/Jacobson gentle-free variant).

    Maintains an EWMA of the queue length; drops with probability
    ramping from 0 at ``min_th`` to ``max_p`` at ``max_th``, and
    always above ``max_th``. Thresholds are fractions of the pipe's
    queue limit so one discipline instance adapts to any pipe.
    """

    def __init__(
        self,
        min_th_frac: float = 0.25,
        max_th_frac: float = 0.75,
        max_p: float = 0.1,
        weight: float = 0.002,
    ):
        if not 0.0 < min_th_frac < max_th_frac <= 1.0:
            raise ValueError("need 0 < min_th < max_th <= 1")
        if not 0.0 < max_p <= 1.0:
            raise ValueError("max_p must be in (0, 1]")
        self.min_th_frac = min_th_frac
        self.max_th_frac = max_th_frac
        self.max_p = max_p
        self.weight = weight
        self.avg = 0.0
        self._count = 0  # packets since last drop (for drop spreading)
        self.early_drops = 0

    def reset(self) -> None:
        self.avg = 0.0
        self._count = 0

    def admit(self, backlog_pkts: int, limit_pkts: int, now: float, rng) -> bool:
        """RED admission: EWMA the queue, drop probabilistically
        between the thresholds, always above max_th or the limit."""
        self.avg += self.weight * (backlog_pkts - self.avg)
        min_th = self.min_th_frac * limit_pkts
        max_th = self.max_th_frac * limit_pkts
        if backlog_pkts >= limit_pkts:
            self._count = 0
            return False
        if self.avg < min_th:
            self._count = 0
            return True
        if self.avg >= max_th:
            self._count = 0
            self.early_drops += 1
            return False
        base_p = self.max_p * (self.avg - min_th) / (max_th - min_th)
        self._count += 1
        denominator = max(1e-9, 1.0 - self._count * base_p)
        probability = min(1.0, base_p / denominator)
        if rng is not None and rng.random() < probability:
            self._count = 0
            self.early_drops += 1
            return False
        return True

    def __repr__(self) -> str:
        return f"<RED avg={self.avg:.1f}>"
