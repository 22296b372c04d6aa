"""The event loop: a clock and a heap of timestamped callbacks.

The kernel implementation lives in :mod:`repro.engine.domain` — one
:class:`~repro.engine.domain.EventDomain` is one clock + heap + seq
counter. This module keeps the historical front door: ``Simulator``
is the single-domain engine every non-partitioned component builds
on, and ``Event`` / ``SimulationError`` re-export from the domain
module so existing imports keep working.

For partitioned multi-core execution (one domain per emulated core
node, epoch-synchronized), see
:class:`repro.engine.sync.PartitionedSimulator`.
"""

from __future__ import annotations

from repro.engine.domain import Event, EventDomain, SimulationError

__all__ = ["Event", "Simulator", "SimulationError"]


class Simulator(EventDomain):
    """A discrete-event simulator with a virtual clock.

    The clock starts at 0.0 and only moves forward, jumping to the
    timestamp of each event as it is dispatched. All times are float
    seconds. This is exactly one :class:`EventDomain` — the classic
    global kernel — and dispatches a byte-identical event stream to
    the pre-partitioning engine.
    """

    def __init__(self) -> None:
        super().__init__(domain_id=0)
