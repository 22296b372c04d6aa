"""Packet descriptors: the by-reference handles the core moves.

"Packets move through the pipes and queues by reference; a core node
never copies packet data" (paper Sec. 2). A descriptor references the
buffered packet, records the route (ordered list of pipes), and
tracks two clocks:

* the *scheduled* clock — actual times at the tick-quantized
  scheduler granularity;
* the *ideal* clock — the exact (unquantized) times the emulation
  should produce, used for accuracy accounting and for the paper's
  proposed packet-debt correction.

Descriptors are recycled through a slot table rather than a free
*list of objects*: each pooled descriptor owns a dense integer
``slot`` into a flat array, and the free list holds slot indices.
Besides sparing the allocator on the hot path (one admission per
packet), the dense-id shape is the groundwork for shared-memory
descriptor pools (ROADMAP item 1) and for a delay line
(:mod:`repro.core.kernel`) that stores descriptor ids instead of
object references.
"""

from __future__ import annotations

from typing import Tuple

from repro.net.packet import Packet


class PacketDescriptor:
    """A packet traversing the emulated pipe network.

    Descriptors are pooled: a saturated core churns through one per
    admitted packet, and recycling them through the slot table
    (:meth:`acquire` / :meth:`release`) spares the allocator on the
    hot path. A released descriptor must never be touched again by
    its previous owner — release happens only where a descriptor
    provably leaves the emulated network (final delivery, or
    destruction by ``Pipe.flush``).
    """

    __slots__ = (
        "packet",
        "pipes",
        "hop_index",
        "entry_core",
        "entered_at",
        "ideal_time",
        "tunnel_hops",
        "handoff",
        "slot",
    )

    def __init__(
        self,
        packet: Packet,
        pipes: Tuple,
        entry_core: int,
        entered_at: float,
    ):
        self.packet = packet
        self.pipes = pipes
        self.hop_index = 0
        self.entry_core = entry_core
        self.entered_at = entered_at
        #: Exact exit time of the most recent pipe (or the entry time
        #: before any pipe has been traversed).
        self.ideal_time = entered_at
        #: Number of core-to-core crossings this descriptor has made.
        self.tunnel_hops = 0
        #: Cross-domain continuation already announced at admission:
        #: 0 none, 1 tunneled onward, 2 exiting to a foreign host.
        #: A nonzero value means the local pipe exit only accounts
        #: CPU cost — the successor descriptor is already in flight.
        self.handoff = 0
        #: Index into the pool's slot table, or -1 for an unpooled
        #: overflow descriptor (created beyond the table capacity and
        #: left to the garbage collector).
        self.slot = -1

    @classmethod
    def acquire(
        cls,
        packet: Packet,
        pipes: Tuple,
        entry_core: int,
        entered_at: float,
    ) -> "PacketDescriptor":
        """A fresh descriptor, recycled from the pool when possible."""
        return POOL.acquire(packet, pipes, entry_core, entered_at)

    def release(self) -> None:
        """Return this descriptor to the pool (drops its references
        so recycled descriptors don't pin packets or pipe routes).

        The identity check keeps a descriptor that outlived a pool
        reset (``POOL.clear``) from pushing a dangling slot index."""
        slot = self.slot
        if slot >= 0:
            slots = POOL.slots
            if slot < len(slots) and slots[slot] is self:
                self.packet = None
                self.pipes = ()
                POOL.free.append(slot)

    @property
    def current_pipe(self):
        """The pipe this descriptor occupies (or will enter next)."""
        return self.pipes[self.hop_index]

    @property
    def remaining_hops(self) -> int:
        return len(self.pipes) - self.hop_index

    def advance(self) -> bool:
        """Step to the next pipe; returns True if one exists."""
        self.hop_index += 1
        return self.hop_index < len(self.pipes)

    @property
    def done(self) -> bool:
        return self.hop_index >= len(self.pipes)

    def __repr__(self) -> str:
        return (
            f"<Descriptor pkt#{self.packet.id} hop {self.hop_index}/"
            f"{len(self.pipes)}>"
        )


class DescriptorPool:
    """Array-slot descriptor recycling.

    ``slots`` is a flat, append-only table of every pooled descriptor;
    ``free`` is a LIFO of recycled slot *indices* (LIFO keeps the
    cache-warm descriptor first, like the old free list). The table is
    bounded: descriptors created beyond ``limit`` stay unpooled
    (``slot == -1``) and die with the garbage collector, so a burst
    can never pin memory forever.

    Pool state is invisible to the event stream — which object backs
    a descriptor never enters a digest — so emulations share one
    module-level pool (descriptors hold no per-emulation state once
    released).
    """

    __slots__ = ("slots", "free", "limit")

    def __init__(self, limit: int = 4096):
        self.slots: list = []
        self.free: list = []
        self.limit = limit

    def acquire(
        self,
        packet: Packet,
        pipes: Tuple,
        entry_core: int,
        entered_at: float,
    ) -> PacketDescriptor:
        free = self.free
        if free:
            descriptor = self.slots[free.pop()]
            descriptor.packet = packet
            descriptor.pipes = pipes
            descriptor.hop_index = 0
            descriptor.entry_core = entry_core
            descriptor.entered_at = entered_at
            descriptor.ideal_time = entered_at
            descriptor.tunnel_hops = 0
            descriptor.handoff = 0
            return descriptor
        descriptor = PacketDescriptor(packet, pipes, entry_core, entered_at)
        slots = self.slots
        if len(slots) < self.limit:
            descriptor.slot = len(slots)
            slots.append(descriptor)
        return descriptor

    def clear(self) -> None:
        """Forget every pooled descriptor (test isolation helper)."""
        self.slots.clear()
        self.free.clear()


#: The shared slot pool (see :class:`DescriptorPool`).
POOL = DescriptorPool()
