"""Emulation monitoring: the kernel logging package analog.

The paper tracks per-packet expected vs. actual delay with an
in-kernel logging package, and argues that "the relative accuracy of
a ModelNet run is proportional to the number of physical packets
dropped". :class:`EmulationMonitor` aggregates both: per-packet
emulation error samples (actual minus ideal exit time) and the
physical/virtual drop taxonomy.

It also defines the *outcome digest* records. Each event domain
(:attr:`~repro.engine.domain.EventDomain.outcomes`, armed with the
event digest) folds one record per packet outcome, in the order the
domain produces them: an exit from the fabric with its actual and
ideal times, a virtual drop (overflow, random loss, or a down link),
a physical drop (NIC ring, core egress, edge uplink), or an
unroutable packet. Records key a packet on ``(src, dst, size,
created_at)``, which every run and backend agree on (``Packet.id``
is process-global and does not), so the digest pins what the
emulated network did independently of how the event stream that did
it is shaped.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import List, Tuple

#: Outcome record kinds (the first byte of every record).
EXIT = 0
DROP_OVERFLOW = 1
DROP_RANDOM = 2
DROP_DOWN = 3
DROP_RING = 4
DROP_EGRESS = 5
DROP_UPLINK = 6
UNROUTABLE = 7

_PACK_OUTCOME = struct.Struct("<Bqqqd").pack
_PACK_EXIT = struct.Struct("<Bqqqddd").pack


def record_outcome(outcomes, kind: int, packet) -> None:
    """Fold a drop or unroutable ``packet`` into an armed outcome
    digest (callers test the domain's ``outcomes`` for None)."""
    outcomes.update(
        _PACK_OUTCOME(
            kind, packet.src, packet.dst, packet.size_bytes, packet.created_at
        )
    )


def record_exit(outcomes, packet, actual_time: float, ideal_time: float) -> None:
    """Fold a fabric exit into an armed outcome digest."""
    outcomes.update(
        _PACK_EXIT(
            EXIT,
            packet.src,
            packet.dst,
            packet.size_bytes,
            packet.created_at,
            actual_time,
            ideal_time,
        )
    )


@dataclass
class AccuracyReport:
    """Summary of one run's emulation fidelity."""

    packets_delivered: int
    packets_entered: int
    virtual_drops: int
    physical_drops: int
    max_error_s: float
    mean_error_s: float
    p99_error_s: float

    def __str__(self) -> str:
        return (
            f"delivered={self.packets_delivered} entered={self.packets_entered} "
            f"virtual_drops={self.virtual_drops} physical_drops={self.physical_drops} "
            f"err(mean/p99/max)={self.mean_error_s*1e6:.1f}/"
            f"{self.p99_error_s*1e6:.1f}/{self.max_error_s*1e6:.1f} us"
        )


def error_summary(samples: List[float]) -> Tuple[float, float, float]:
    """``(mean, p99, max)`` of per-packet error samples, zeros when
    there are none."""
    if not samples:
        return 0.0, 0.0, 0.0
    ordered = sorted(samples)
    p99 = ordered[min(len(ordered) - 1, int(0.99 * len(ordered)))]
    return sum(ordered) / len(ordered), p99, ordered[-1]


class EmulationMonitor:
    """Counters and per-packet accuracy sampling for one emulation."""

    def __init__(self, sample_errors: bool = True, max_samples: int = 200_000):
        self.sample_errors = sample_errors
        self.max_samples = max_samples
        self.packets_entered = 0
        self.packets_delivered = 0
        self.packets_unroutable = 0
        self.physical_drops_ring = 0
        self.physical_drops_egress = 0
        self.physical_drops_uplink = 0
        self.tunnels = 0
        self.error_samples: List[float] = []
        self._window_start = 0.0
        self._window_delivered_base = 0

    # -- per-packet events ---------------------------------------------

    def packet_entered(self) -> None:
        self.packets_entered += 1

    def packet_unroutable(self) -> None:
        self.packets_unroutable += 1

    def packet_tunneled(self) -> None:
        self.tunnels += 1

    def ring_drop(self) -> None:
        self.physical_drops_ring += 1

    def egress_drop(self) -> None:
        self.physical_drops_egress += 1

    def uplink_drop(self) -> None:
        self.physical_drops_uplink += 1

    def packet_exited(self, ideal_time: float, actual_time: float) -> None:
        self.packets_delivered += 1
        if self.sample_errors and len(self.error_samples) < self.max_samples:
            self.error_samples.append(actual_time - ideal_time)

    # -- windows (throughput measurement) --------------------------------

    def begin_window(self, now: float) -> None:
        """Start a measurement window (e.g. after warm-up)."""
        self._window_start = now
        self._window_delivered_base = self.packets_delivered

    def window_packets(self) -> int:
        return self.packets_delivered - self._window_delivered_base

    def window_pps(self, now: float) -> float:
        elapsed = now - self._window_start
        if elapsed <= 0:
            return 0.0
        return self.window_packets() / elapsed

    # -- reporting --------------------------------------------------------

    @property
    def physical_drops(self) -> int:
        return (
            self.physical_drops_ring
            + self.physical_drops_egress
            + self.physical_drops_uplink
        )

    def report(self, virtual_drops: int = 0) -> AccuracyReport:
        """Summarize the run's fidelity (errors + drop taxonomy)."""
        mean, p99, worst = error_summary(self.error_samples)
        return AccuracyReport(
            packets_delivered=self.packets_delivered,
            packets_entered=self.packets_entered,
            virtual_drops=virtual_drops,
            physical_drops=self.physical_drops,
            max_error_s=worst,
            mean_error_s=mean,
            p99_error_s=p99,
        )
