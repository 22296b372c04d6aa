"""The ModelNet core router (paper Sec. 2.2, Fig. 3).

A core node performs two principal tasks: it processes "hardware
interrupts" to retrieve packets from its NIC ring, and its scheduler
moves packets from pipe to pipe at every clock tick. The scheduler
runs at strictly higher priority, so under CPU saturation the NIC
ring overflows and packets are dropped *physically* rather than
emulated inaccurately — the paper's central accuracy invariant.

The cost model (per-packet ingress, per-hop scheduling, tunneling)
comes from :class:`repro.hardware.calibration.CoreSpec`. With
``exact=True`` the node models an infinitely fast core with no tick
quantization — the reference mode used for ns2-style comparison runs
and for application studies where core hardware is not the subject.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop
from math import ceil
from typing import Deque, Optional, Tuple

from repro.core.monitor import (
    DROP_EGRESS,
    DROP_RING,
    UNROUTABLE,
    record_exit,
    record_outcome,
)
from repro.core.packet import PacketDescriptor
from repro.core.pipe import INFINITY, Pipe
from repro.core.scheduler import PipeScheduler
from repro.engine.sync import MSG_HOST, MSG_TUNNEL, DomainChannel
from repro.hardware.calibration import CoreSpec
from repro.hardware.links import PhysicalLink

# Ring work-item tags.
INGRESS = 0  # a fresh packet from an edge node
TUNNEL_IN = 1  # a descriptor arriving from a peer core
DELIVER = 2  # a payload-caching delivery order returning to the entry core


class CoreNode:
    """One core router."""

    def __init__(
        self,
        sim,
        index: int,
        spec: CoreSpec,
        emulation,
        exact: bool = False,
        debt_handling: bool = False,
        domain_id: int = 0,
    ):
        self.sim = sim
        self.index = index
        self.spec = spec
        self.emulation = emulation
        self.exact = exact
        self.debt_handling = debt_handling
        #: Which event domain this core's heap/clock belongs to.
        self.domain_id = domain_id
        #: This domain's pipe-loss stream (== emulation.loss_rng for
        #: domain 0, so single-domain digests are unchanged).
        self._loss_rng = emulation._loss_rngs[domain_id]
        # Partitioned plumbing: cross-domain sends go through the
        # router mailbox over a synchronous channel model instead of a
        # PhysicalLink (whose delivery callback would fire on *this*
        # domain's clock). None in single-domain runs.
        if emulation.num_domains > 1:
            self._router = emulation.router
            self._domain_of_core = emulation._domain_of_core
            self._cross_channel = DomainChannel(
                spec.nic_bps, spec.switch_latency_s
            )
        else:
            self._router = None
            self._domain_of_core = None
            self._cross_channel = None
        self.scheduler = PipeScheduler(0.0 if exact else spec.tick_s)
        # Spec constants hoisted onto the instance: the wake loop and
        # ingress path read them once per packet/tick.
        self._tick_s = spec.tick_s
        self._sched_tick_s = self.scheduler.tick_s
        self._per_hop_s = spec.per_hop_s
        self._per_packet_s = spec.per_packet_s
        self._nic_ring_slots = spec.nic_ring_slots
        self._ring: Deque[Tuple[int, object]] = deque()
        self._wake_event = None
        self._wake_time = INFINITY
        self._last_wake = 0.0
        self._cpu_backlog = 0.0
        self.cpu_busy_s = 0.0
        self.packets_processed = 0
        self.hops_processed = 0
        #: Wakeups whose work exceeded one tick of CPU (the real-time
        #: scheduler "overrun" signal: emulation is falling behind).
        self.tick_overruns = 0
        #: Optional (prev_pipe_id, next_pipe_id) -> packet counter,
        #: installed by the dynamic reassigner to learn the traffic's
        #: pipe adjacency ("evolving communication patterns").
        self.pair_tracker: Optional[dict] = None
        self.tunnels_sent = 0
        self.tunnels_received = 0
        # Physical NIC links, attached by the emulation when the
        # physical layer is modeled.
        self.ingress_link: Optional[PhysicalLink] = None
        self.egress_link: Optional[PhysicalLink] = None

    # ------------------------------------------------------------------
    # Physical arrival paths
    # ------------------------------------------------------------------

    def physical_ingress(self, tag: int, item) -> None:
        """A packet/descriptor reached this core's NIC: join the
        receive ring, or be dropped physically if the ring is full."""
        if self.exact:
            self._process_item(tag, item, self.sim.now)
            return
        if len(self._ring) >= self._nic_ring_slots:
            self.emulation.monitor.ring_drop()
            if self.sim.outcomes is not None:
                packet = item if tag == INGRESS else item.packet
                record_outcome(self.sim.outcomes, DROP_RING, packet)
            return
        self._ring.append((tag, item))
        # scheduler.quantize(now) clamped to now, inlined: the next
        # tick boundary, or this instant if one lands (just) behind us.
        now = self.sim._now
        tick = self._sched_tick_s
        if tick > 0.0:
            wake = ceil(now / tick - 1e-9) * tick
            if wake <= now:
                wake = now
        else:
            wake = now
        self._ensure_wake(wake)

    def ingress_packet(self, packet) -> None:
        """Entry point for fresh edge traffic (ipfw intercept)."""
        self.physical_ingress(INGRESS, packet)

    # ------------------------------------------------------------------
    # The kernel loop
    # ------------------------------------------------------------------

    def _ensure_wake(self, time: float) -> None:
        # Debt handling can produce already-matured deadlines; service
        # them at the current instant.
        now = self.sim._now
        if time < now:
            time = now
        event = self._wake_event
        if event is not None:
            if self._wake_time <= time:
                return
            event.cancel()
        self._wake_time = time
        self._wake_event = self.sim.at(time, self._wake)

    def _reschedule_wake(self) -> None:
        # scheduler.next_wake() and _ensure_wake() inlined: this runs
        # after every wake and every packet offer.
        sched_heap = self.scheduler._heap
        while sched_heap:
            entry = sched_heap[0]
            if entry[0] == entry[2]._sched_hint:
                break
            heappop(sched_heap)  # stale: superseded, serviced, flushed
        if sched_heap:
            wake = sched_heap[0][0]
            tick = self._sched_tick_s
            if tick > 0.0:
                wake = ceil(wake / tick - 1e-9) * tick
        else:
            wake = INFINITY
        if self._ring:
            ring_wake = self.sim._now + self._tick_s
            if ring_wake < wake:
                wake = ring_wake
        if wake < INFINITY:
            now = self.sim._now
            if wake < now:
                wake = now
            event = self._wake_event
            if event is not None:
                if self._wake_time <= wake:
                    return
                event.cancel()
            self._wake_time = wake
            self._wake_event = self.sim.at(wake, self._wake)

    def _wake(self) -> None:
        now = self.sim._now
        self._wake_event = None
        self._wake_time = INFINITY
        tick = self._tick_s

        # CPU backlog decays with elapsed wall (virtual) time.
        elapsed = now - self._last_wake
        self._last_wake = now
        backlog = self._cpu_backlog - elapsed
        if backlog < 0.0:
            backlog = 0.0

        spent = 0.0
        # 1) Scheduler pass: highest priority, always runs to completion.
        # Ticks with no matured deadline (common under light load) skip
        # the collect() call entirely; the wakeup is still counted so
        # sched.wakeups reads the same either way.
        scheduler = self.scheduler
        sched_heap = scheduler._heap
        if (
            sched_heap
            and sched_heap[0][0] <= now + scheduler._slack
            or scheduler.collect_timer is not None
        ):
            hops = 0
            per_hop = self._per_hop_s
            descriptor_exited = self._descriptor_exited
            # Batched delivery: collect() hands back one (pipe, exits)
            # run per serviced pipe; hop bookkeeping is per batch. The
            # CPU charge stays per descriptor *in order* — the float
            # accumulation sequence is part of the digest contract
            # (summing per_hop * n would perturb the NIC-ring budget).
            for _pipe, exits in scheduler.collect(now):
                hops += len(exits)
                for descriptor in exits:
                    spent += per_hop
                    spent += descriptor_exited(descriptor, now)
            self.hops_processed += hops
        else:
            scheduler.wakeups += 1

        # 2) Interrupt pass: drain the NIC ring with whatever CPU
        #    remains in this tick.
        budget = tick - backlog - spent
        ring = self._ring
        if ring:
            per_packet = self._per_packet_s
            popleft = ring.popleft
            process_item = self._process_item
            while ring:
                tag, item = ring[0]
                cost = (
                    per_packet
                    if tag == INGRESS
                    else self._item_cost(tag, item)
                )
                if budget < cost:
                    break
                popleft()
                budget -= cost
                spent += cost
                process_item(tag, item, now)

        self.cpu_busy_s += spent
        backlog = backlog + spent - tick
        if backlog > 0.0:
            self._cpu_backlog = backlog
            self.tick_overruns += 1
        else:
            self._cpu_backlog = 0.0
        self._reschedule_wake()

    def _item_cost(self, tag: int, item=None) -> float:
        if tag == INGRESS:
            return self.spec.per_packet_s
        if tag == TUNNEL_IN:
            cost = self.spec.tunnel_recv_s
            if not self.emulation.config.payload_caching and item is not None:
                # The packet body came along: pay the memcpy.
                cost += self.spec.tunnel_byte_s * item.packet.size_bytes
            return cost
        return self.spec.deliver_order_s

    def _process_item(self, tag: int, item, now: float) -> None:
        if tag == INGRESS:
            self._admit_packet(item, now)
        elif tag == TUNNEL_IN:
            self.tunnels_received += 1
            self._offer(item, now)
        else:  # DELIVER: payload-caching order back at the entry core
            self._deliver_local(item)

    # ------------------------------------------------------------------
    # Packet admission and movement
    # ------------------------------------------------------------------

    def _admit_packet(self, packet, now: float) -> None:
        pipes = self.emulation.lookup_pipes(packet.src, packet.dst)
        if pipes is None:
            self.emulation.monitor.packet_unroutable()
            if self.sim.outcomes is not None:
                record_outcome(self.sim.outcomes, UNROUTABLE, packet)
            return
        self.packets_processed += 1
        self.emulation.monitor.packet_entered()
        descriptor = PacketDescriptor.acquire(packet, pipes, self.index, now)
        if not pipes:
            # Source and destination share an attachment point.
            self._complete(descriptor, now)
            return
        if self.pair_tracker is not None:
            # Pseudo-source -1-k encodes "entered at core k": a first
            # pipe owned elsewhere is also a crossing.
            key = (-1 - self.index, pipes[0].id)
            self.pair_tracker[key] = self.pair_tracker.get(key, 0) + 1
        self._offer(descriptor, now)

    def _offer(self, descriptor: PacketDescriptor, now: float) -> None:
        """Place a descriptor on its current pipe, tunneling first if
        the pipe belongs to a different core."""
        pipe = descriptor.current_pipe
        if pipe.owner != self.index:
            self._tunnel(descriptor, pipe.owner)
            return
        sched_arrival = descriptor.ideal_time if self.debt_handling else now
        accepted = pipe.arrival(
            descriptor, sched_arrival, descriptor.ideal_time, self._loss_rng
        )
        if accepted:
            if self._router is not None and not self.exact:
                self._announce_handoff(descriptor, pipe)
            self.scheduler.notify(pipe)
            self._reschedule_wake()
        elif self.sim.outcomes is not None:
            # A virtual drop, already counted by the pipe.
            record_outcome(self.sim.outcomes, pipe.refusal, descriptor.packet)

    def _announce_handoff(self, descriptor: PacketDescriptor, pipe: Pipe) -> None:
        """Announce a cross-domain continuation at *admission* time.

        The instant ``pipe`` accepts a descriptor, its exit is fully
        determined: ``_arrival`` fixed the dequeue time (the pipe's
        new ``_free_at``) and the exit follows one pipe latency later,
        regardless of when the tick scheduler collects it. So when the
        hop *after* this pipe lives in another domain, the successor
        can be put on the wire now, timed at that future exit — the
        message rides the pipe's own latency, which is what lets the
        lookahead matrix carry per-pair pipe latencies instead of the
        20 us channel floor (the whole point of per-pair sync; see
        ``Emulation._derive_lookahead_matrix``). The local descriptor
        finishes its traversal for CPU/stat accounting and is marked
        ``handoff`` so the exit handler releases it instead of
        forwarding it a second time.

        One modeled cost moves with this: with payload caching, a
        completion whose entry core sits in a foreign domain no longer
        bounces a delivery order back to it (that bounce would pin
        every communicating domain pair at the channel floor); the
        packet exits directly from the last pipe's core. Same-domain
        delivery orders are unchanged.
        """
        next_index = descriptor.hop_index + 1
        pipes = descriptor.pipes
        exit_at = pipe._free_at + pipe.latency_s
        emulation = self.emulation
        if next_index < len(pipes):
            next_pipe = pipes[next_index]
            next_domain = self._domain_of_core[next_pipe.owner]
            if next_domain == self.domain_id:
                return
            copy = PacketDescriptor.acquire(
                descriptor.packet,
                pipes,
                descriptor.entry_core,
                descriptor.entered_at,
            )
            copy.hop_index = next_index
            copy.ideal_time = descriptor.ideal_time
            copy.tunnel_hops = descriptor.tunnel_hops + 1
            if self.pair_tracker is not None:
                key = (pipe.id, next_pipe.id)
                self.pair_tracker[key] = self.pair_tracker.get(key, 0) + 1
            self.tunnels_sent += 1
            emulation.monitor.packet_tunneled()
            if emulation.config.payload_caching:
                size = self.spec.descriptor_bytes
            else:
                size = descriptor.packet.size_bytes
            self._router.send(
                self._cross_channel.handoff_time(exit_at, size),
                self.domain_id,
                next_domain,
                MSG_TUNNEL,
                next_pipe.owner,
                copy,
            )
            descriptor.handoff = 1
            return
        # Last pipe: on exit the packet leaves the core fabric toward
        # its destination host. Announce that too when the host's
        # domain is foreign.
        packet = descriptor.packet
        host = emulation.host_of_vn(packet.dst)
        host_domain = emulation._domain_of_host[host.index]
        if host_domain == self.domain_id:
            return
        self._router.send(
            self._cross_channel.handoff_time(exit_at, packet.size_bytes),
            self.domain_id,
            host_domain,
            MSG_HOST,
            host.index,
            packet,
        )
        descriptor.handoff = 2

    def _descriptor_exited(self, descriptor: PacketDescriptor, now: float) -> float:
        """Handle a pipe exit; returns extra CPU spent (tunnel sends)."""
        handoff = descriptor.handoff
        if handoff:
            # The continuation crossed the domain boundary at admission
            # time; this exit only accounts the local CPU cost.
            if handoff == 1:
                cost = self.spec.tunnel_send_s
                if not self.emulation.config.payload_caching:
                    cost += self.spec.tunnel_byte_s * descriptor.packet.size_bytes
                descriptor.release()
                return cost
            # handoff == 2: exiting toward a foreign-domain host.
            self.emulation.monitor.packet_exited(descriptor.ideal_time, now)
            outcomes = self.sim.outcomes
            if outcomes is not None:
                record_exit(outcomes, descriptor.packet, now, descriptor.ideal_time)
            descriptor.release()
            return self.spec.deliver_order_s
        previous_pipe = descriptor.current_pipe
        if descriptor.advance():
            next_pipe = descriptor.current_pipe
            if self.pair_tracker is not None:
                key = (previous_pipe.id, next_pipe.id)
                self.pair_tracker[key] = self.pair_tracker.get(key, 0) + 1
            if next_pipe.owner != self.index:
                self._tunnel(descriptor, next_pipe.owner)
                cost = self.spec.tunnel_send_s
                if not self.emulation.config.payload_caching:
                    cost += self.spec.tunnel_byte_s * descriptor.packet.size_bytes
                return cost
            sched_arrival = descriptor.ideal_time if self.debt_handling else now
            accepted = next_pipe.arrival(
                descriptor,
                sched_arrival,
                descriptor.ideal_time,
                self._loss_rng,
            )
            if accepted:
                if self._router is not None and not self.exact:
                    self._announce_handoff(descriptor, next_pipe)
                self.scheduler.notify(next_pipe)
            elif self.sim.outcomes is not None:
                record_outcome(
                    self.sim.outcomes, next_pipe.refusal, descriptor.packet
                )
            return 0.0
        return self._complete(descriptor, now)

    def _tunnel(self, descriptor: PacketDescriptor, owner: int) -> None:
        """Forward a descriptor to the core owning its next pipe."""
        descriptor.tunnel_hops += 1
        self.tunnels_sent += 1
        self.emulation.monitor.packet_tunneled()
        if self.emulation.config.payload_caching:
            size = self.spec.descriptor_bytes
        else:
            size = descriptor.packet.size_bytes
        router = self._router
        if router is not None:
            owner_domain = self._domain_of_core[owner]
            if owner_domain != self.domain_id:
                router.send(
                    self._cross_channel.delivery_time(self.sim._now, size),
                    self.domain_id,
                    owner_domain,
                    MSG_TUNNEL,
                    owner,
                    descriptor,
                )
                return
        target = self.emulation.cores[owner]
        if self.exact or self.egress_link is None:
            target.physical_ingress(TUNNEL_IN, descriptor)
            return
        ok = self.egress_link.send(
            size, target.physical_ingress, TUNNEL_IN, descriptor
        )
        if not ok:
            self._egress_drop(descriptor.packet)

    def _complete(self, descriptor: PacketDescriptor, now: float) -> float:
        """A descriptor finished its last pipe on this core."""
        self.emulation.monitor.packet_exited(descriptor.ideal_time, now)
        outcomes = self.sim.outcomes
        if outcomes is not None:
            record_exit(outcomes, descriptor.packet, now, descriptor.ideal_time)
        if (
            self.emulation.config.payload_caching
            and descriptor.entry_core != self.index
            and not self.exact
        ):
            # Payload stayed at the entry core [22]: send it the
            # delivery order; the body never crossed the core fabric.
            entry_core = descriptor.entry_core
            router = self._router
            if router is not None:
                entry_domain = self._domain_of_core[entry_core]
                if entry_domain != self.domain_id:
                    # Delivery orders are modeled only within a domain
                    # (see _announce_handoff): deliver straight from
                    # the exit core, keeping the order's CPU cost.
                    self._deliver_local(descriptor)
                    return self.spec.deliver_order_s
            entry = self.emulation.cores[entry_core]
            if self.egress_link is not None:
                ok = self.egress_link.send(
                    self.spec.descriptor_bytes,
                    entry.physical_ingress,
                    DELIVER,
                    descriptor,
                )
                if not ok:
                    self._egress_drop(descriptor.packet)
                return self.spec.deliver_order_s
            entry.physical_ingress(DELIVER, descriptor)
            return self.spec.deliver_order_s
        self._deliver_local(descriptor)
        return 0.0

    def _deliver_local(self, descriptor: PacketDescriptor) -> None:
        """Push the buffered packet out of this core toward the edge
        host of the destination VN."""
        packet = descriptor.packet
        # The descriptor's journey ends here: only the buffered packet
        # travels on. Recycle it for the next admission.
        descriptor.release()
        if self.exact or self.egress_link is None:
            self.emulation.deliver_to_vn(packet)
            return
        host = self.emulation.host_of_vn(packet.dst)
        router = self._router
        if router is not None:
            host_domain = self.emulation._domain_of_host[host.index]
            if host_domain != self.domain_id:
                router.send(
                    self._cross_channel.delivery_time(
                        self.sim._now, packet.size_bytes
                    ),
                    self.domain_id,
                    host_domain,
                    MSG_HOST,
                    host.index,
                    packet,
                )
                return
        ok = self.egress_link.send(
            packet.size_bytes, host.receive_from_switch, packet
        )
        if not ok:
            self._egress_drop(packet)

    def _egress_drop(self, packet) -> None:
        """The egress wire refused ``packet``: a physical drop."""
        self.emulation.monitor.egress_drop()
        if self.sim.outcomes is not None:
            record_outcome(self.sim.outcomes, DROP_EGRESS, packet)

    # ------------------------------------------------------------------

    def utilization(self, elapsed_s: float) -> float:
        """Fraction of ``elapsed_s`` the core CPU was busy."""
        if elapsed_s <= 0:
            return 0.0
        return min(1.0, self.cpu_busy_s / elapsed_s)

    def __repr__(self) -> str:
        return f"<CoreNode {self.index} ring={len(self._ring)}>"
