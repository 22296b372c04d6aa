"""Multiprocess executor: one worker per domain group, peer-to-peer epochs.

The serial :class:`~repro.engine.sync.PartitionedSimulator` proves the
partitioning correct; this module makes it parallel. Each worker
process rebuilds the *entire* emulation from a picklable
:class:`~repro.api.ScenarioSpec` (build is deterministic per the
repro.check contract, so every worker sees an identical object graph)
and then runs only the event domains it owns. The parent never runs
events and never carries mail.

One ``("run", until, observed)`` command sends every worker through
:meth:`PartitionedSimulator.run` over its owned domains. The loop's
mail step (:class:`PeerSync`) swaps mail and next-event times with
every peer directly over a :class:`PeerMesh` of socket pairs, one
:func:`pack_frame` frame per peer per epoch. On a plain run the parent
only supervises heartbeats and collects results at ``finish``. An
*observed* run (a barrier hook or a chaos kill is set) also stops
every worker at each epoch barrier: the worker reports ``("barrier",
epoch, horizon, messages_routed, digests)`` on its command pipe and
blocks until the parent answers ``("go",)``, or ``("finish", None)``
to halt there after a budget abort.

Determinism, regardless of worker count:

* mail is injected into each destination domain in
  ``(time, src_domain, seq)`` order — the total order
  :meth:`DomainRouter.flush` uses in-process — so heap sequence
  numbers are assigned identically whether the sender lived in the
  same worker or another one;
* every worker computes the per-domain window vector with the same
  :func:`~repro.engine.sync.epoch_windows` planner the serial executor
  uses, on the same exchanged effective next-event vector (reported
  heap minima folded with the earliest time of the mail in flight to
  each domain, which equals the post-flush heap minimum the serial
  executor sees), so all agree on every window, including the windows
  clipped at a fault occurrence (:func:`~repro.engine.sync.clip_windows`),
  and apply each occurrence at the same barrier.

Hence the composed per-domain digests of a multiprocess run match the
serial partitioned run of the same scenario exactly — the property
``repro-net sanitize --backend multiprocess`` enforces.

Execution is supervised (:mod:`repro.resilience`): every worker runs a
heartbeat thread carrying its epoch count and folds its domains' native
digests. The :class:`~repro.resilience.supervisor.WorkerSupervisor`
detects crashes and hangs, stops the whole group, respawns it with a
fresh peer mesh and reruns it; the deterministic rerun is the replay.
On an observed run the rerun is released silently through the barriers
already seen and digest-checked at the last one, so a SIGKILL mid-run
yields the same composed digest as an undisturbed run and the barrier
hook sees each barrier once.

Statistics take the serial path: at ``finish`` every worker runs
:meth:`RunStats.gather <repro.obs.report.RunStats.gather>` over the
domains it owns and ships the result; the parent publishes the
:meth:`~repro.obs.report.RunStats.merge` of the parts as
``MultiprocessResult.stats``. The parent's own emulation never ran,
and nothing reads or writes its statistics.

Workers account their loop time as ``compute_s`` (injecting mail and
running windows), ``exchange_s`` (blocked sending to or receiving from
a peer, or at a barrier on the parent) and ``codec_s`` (encoding and
pickling mail, and back), reported per worker as
``parallel.worker_*_s{worker=i}``.
"""

from __future__ import annotations

import gc
import multiprocessing
import os
import pickle
import select
import signal as _signal
import socket
import struct
import threading
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.packet import PacketDescriptor
from repro.engine.domain import INFINITY, run_digest
from repro.engine.sync import DomainMessage, MSG_HOST
from repro.net.packet import Packet
from repro.net.sockets import UdpDatagram
from repro.net.tcp import TcpSegment
from repro.obs.report import RunStats
from repro.resilience.policy import (
    BudgetExceeded,
    ResilienceError,
    RetryPolicy,
)
from repro.resilience.supervisor import WorkerSupervisor

#: How :func:`encode_message` flattens a packet's transport segment.
_SEG_OTHER = 0  # any other object, passed through as is
_SEG_TCP = 1
_SEG_UDP = 2

#: Fields before the segment tag: the message and packet headers, then
#: (except on ``MSG_HOST`` mail) the descriptor's.
_SEG_AT_HOST = 12
_SEG_AT_DESCRIPTOR = 18


class ParallelExecutionError(RuntimeError):
    """A worker failed; carries the remote traceback text."""


# ----------------------------------------------------------------------
# Message encoding
# ----------------------------------------------------------------------

def encode_message(message: DomainMessage) -> tuple:
    """Flatten one message to a tuple of plain fields.

    The tuple holds the message header (time, src_domain, seq,
    dst_domain, kind, target) and the packet header (id, src, dst,
    size_bytes, proto, created_at). Descriptor mail (``MSG_TUNNEL``,
    ``MSG_DELIVER``) adds the pipe ids, hop_index, entry_core,
    entered_at, ideal_time and tunnel_hops: live pipes cannot cross a
    process boundary, and the receiver's pipe table is identical. The
    transport segment comes last, tagged by type: a
    :class:`~repro.net.tcp.TcpSegment` or
    :class:`~repro.net.sockets.UdpDatagram` as its fields, any other
    object as is. Only the application objects a segment carries
    (``messages``, ``sack_blocks``, a UDP ``payload``, or an unknown
    segment) are pickled as objects; no packet, segment or message
    class is. This is the paper's payload caching (§3.3) at the
    process boundary: ship descriptors, not objects.
    """
    kind = message.kind
    payload = message.payload
    packet = payload if kind == MSG_HOST else payload.packet
    fields = (
        message.time, message.src_domain, message.seq, message.dst_domain,
        kind, message.target,
        packet.id, packet.src, packet.dst, packet.size_bytes, packet.proto,
        packet.created_at,
    )
    if kind != MSG_HOST:
        fields += (
            tuple([pipe.id for pipe in payload.pipes]),
            payload.hop_index,
            payload.entry_core,
            payload.entered_at,
            payload.ideal_time,
            payload.tunnel_hops,
        )
    segment = packet.segment
    segment_type = type(segment)
    if segment_type is TcpSegment:
        return fields + (
            _SEG_TCP, segment.sport, segment.dport, segment.seq,
            segment.ack_seq, segment.flags, segment.wnd, segment.payload_len,
            segment.messages, segment.sack_blocks,
        )
    if segment_type is UdpDatagram:
        return fields + (
            _SEG_UDP, segment.sport, segment.dport, segment.payload,
            segment.payload_len,
        )
    return fields + (_SEG_OTHER, segment)


class PipeRoutes(dict):
    """Pipe-id tuple -> the same route as this process's own pipes
    tuple, built from the emulation's pipe table on first use. Mail
    follows few distinct routes, so each is resolved once."""

    __slots__ = ("_by_id",)

    def __init__(self, emulation) -> None:
        super().__init__()
        self._by_id = emulation.pipes.by_id

    def __missing__(self, pipe_ids: tuple) -> tuple:
        by_id = self._by_id
        pipes = self[pipe_ids] = tuple([by_id(i) for i in pipe_ids])
        return pipes


def decode_message(fields: tuple, routes: PipeRoutes) -> DomainMessage:
    """Rebuild an :func:`encode_message` tuple into a message whose
    packet keeps the sender's ``id`` and whose descriptor, if any,
    runs over this process's own pipes (``routes``)."""
    kind = fields[4]
    segment_at = _SEG_AT_HOST if kind == MSG_HOST else _SEG_AT_DESCRIPTOR
    tag = fields[segment_at]
    if tag == _SEG_TCP:
        segment = TcpSegment(*fields[segment_at + 1:])
    elif tag == _SEG_UDP:
        segment = UdpDatagram(*fields[segment_at + 1:])
    else:
        segment = fields[segment_at + 1]
    # Not Packet(...): the constructor draws a fresh id from this
    # process's counter, and the packet is the sender's.
    packet = Packet.__new__(Packet)
    (packet.id, packet.src, packet.dst, packet.size_bytes, packet.proto,
     packet.created_at) = fields[6:12]
    packet.segment = segment
    if kind == MSG_HOST:
        payload = packet
    else:
        (pipe_ids, hop_index, entry_core, entered_at, ideal_time,
         tunnel_hops) = fields[12:18]
        payload = PacketDescriptor.acquire(
            packet, routes[pipe_ids], entry_core, entered_at
        )
        payload.hop_index = hop_index
        payload.ideal_time = ideal_time
        payload.tunnel_hops = tunnel_hops
    return DomainMessage(*fields[:6], payload)


def pack_frame(payload: Any) -> bytes:
    """One pickle frame for everything a worker sends one peer after an
    epoch: its next-event times, mail minima and (already-encoded)
    mail."""
    return pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)


def unpack_frame(frame: bytes) -> Any:
    """The payload of a :func:`pack_frame` frame."""
    return pickle.loads(frame)


# ----------------------------------------------------------------------
# Peer exchange
# ----------------------------------------------------------------------

_FRAME_HEADER = struct.Struct("!Q")
#: Largest single read from a peer socket.
_READ_CHUNK = 1 << 20


def peer_mesh(num_workers: int) -> List[Dict[int, socket.socket]]:
    """A full mesh of stream socket pairs for one run of the group:
    ``mesh[i][j]`` is worker ``i``'s end of its link to worker ``j``."""
    mesh: List[Dict[int, socket.socket]] = [{} for _ in range(num_workers)]
    for i in range(num_workers):
        for j in range(i + 1, num_workers):
            mesh[i][j], mesh[j][i] = socket.socketpair()
    return mesh


class PeerMesh:
    """One worker's sockets to each of its peers.

    :meth:`exchange` sends one frame to every peer and receives one
    from every peer in a single ``select`` loop over non-blocking
    sockets: it writes whatever the kernel accepts and reads whatever
    has arrived, so it cannot deadlock for any frame size or worker
    count. (A fixed order such as "the lower index sends first" can:
    with three workers and frames larger than the socket buffers,
    0 waits on 1, 1 on 2 and 2 on 0.) Frames are length-prefixed and a
    read never runs past the current frame, because a fast peer's
    next frame may already be queued behind it.
    """

    def __init__(self, sockets: Dict[int, socket.socket]) -> None:
        self._sockets = dict(sockets)
        self.peers = sorted(self._sockets)
        for sock in self._sockets.values():
            sock.setblocking(False)

    def exchange(self, frames: Dict[int, bytes]) -> Dict[int, bytearray]:
        """Send ``frames[peer]`` to every peer; return every peer's
        frame to this worker, keyed by peer."""
        sockets = self._sockets
        unsent = {
            sockets[peer]: memoryview(_FRAME_HEADER.pack(len(frame)) + frame)
            for peer, frame in frames.items()
        }
        # socket -> [peer, bytes read, total frame length or None]
        reading = {sockets[peer]: [peer, bytearray(), None] for peer in self.peers}
        received: Dict[int, bytearray] = {}
        while unsent or reading:
            readable, writable, _ = select.select(
                list(reading), list(unsent), []
            )
            for sock in writable:
                view = unsent[sock]
                sent = sock.send(view)
                if sent < len(view):
                    unsent[sock] = view[sent:]
                else:
                    del unsent[sock]
            for sock in readable:
                state = reading[sock]
                peer, buffer, total = state
                want = (total or _FRAME_HEADER.size) - len(buffer)
                chunk = sock.recv(min(want, _READ_CHUNK))
                if not chunk:
                    raise ConnectionError(f"peer {peer} closed its link")
                buffer += chunk
                if total is None and len(buffer) == _FRAME_HEADER.size:
                    total = state[2] = (
                        _FRAME_HEADER.size + _FRAME_HEADER.unpack(buffer)[0]
                    )
                if len(buffer) == total:
                    received[peer] = buffer[_FRAME_HEADER.size:]
                    del reading[sock]
        return received

    def close(self) -> None:
        for sock in self._sockets.values():
            sock.close()


class PeerSync:
    """A worker's mail step: the ``sync`` seam it passes to
    :meth:`PartitionedSimulator.run`.

    After each epoch it sends every peer one frame holding this
    worker's owned domains' next-event times, the earliest time of its
    outgoing mail per destination domain, and the mail addressed to
    domains that peer owns. It then injects its own inbox in
    ``(time, src_domain, seq)`` order and returns the full effective
    next-event vector, which every worker builds from the same
    exchanged values — the vector the serial :meth:`sync` returns.
    """

    def __init__(self, sim, emulation, groups, index: int, mesh: PeerMesh,
                 timing: Dict[str, float]) -> None:
        self._sim = sim
        self._groups = groups
        self._index = index
        self._owner = {d: w for w, group in enumerate(groups) for d in group}
        self._mesh = mesh
        self._routes = PipeRoutes(emulation)
        self._timing = timing
        self._mark = perf_counter()  # repro: allow-wallclock

    def __call__(self) -> List[float]:
        timing = self._timing
        start = perf_counter()  # repro: allow-wallclock
        timing["compute_s"] += start - self._mark
        sim = self._sim
        domains = sim.domains
        index = self._index
        owner = self._owner
        owned = self._groups[index]
        inbox: List[DomainMessage] = []
        outgoing: Dict[int, List[DomainMessage]] = {
            peer: [] for peer in self._mesh.peers
        }
        mail_min: Dict[int, float] = {}
        for message in sim.router.take_pending():
            dst = message.dst_domain
            if message.time < mail_min.get(dst, INFINITY):
                mail_min[dst] = message.time
            if owner[dst] == index:
                inbox.append(message)
            else:
                outgoing[owner[dst]].append(encode_message(message))
        heads = [domains[d].next_event_time() for d in owned]
        next_times = [INFINITY] * len(domains)
        for d, t in zip(owned, heads):
            next_times[d] = t
        minima = [mail_min]
        if outgoing:
            frames = {
                peer: pack_frame((heads, mail_min, mail))
                for peer, mail in outgoing.items()
            }
            sent = perf_counter()  # repro: allow-wallclock
            received = self._mesh.exchange(frames)
            arrived = perf_counter()  # repro: allow-wallclock
            timing["exchange_s"] += arrived - sent
            routes = self._routes
            for peer, frame in received.items():
                peer_heads, peer_min, mail = unpack_frame(frame)
                for d, t in zip(self._groups[peer], peer_heads):
                    next_times[d] = t
                minima.append(peer_min)
                inbox.extend([decode_message(m, routes) for m in mail])
            start += arrived - sent
        for mins in minima:
            for d, t in mins.items():
                if t < next_times[d]:
                    next_times[d] = t
        self._mark = perf_counter()  # repro: allow-wallclock
        timing["codec_s"] += self._mark - start
        inbox.sort(key=lambda m: (m.time, m.src_domain, m.seq))
        sim.router.inject(domains, inbox)
        return next_times


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------

def _build_from_spec(spec, observe: bool):
    """Rebuild the scenario in this process (identical by determinism
    of the build path) and return (partitioned sim, emulation). The
    parent checked the spec partitions before spawning; ``observe``
    arms the hot-path timers when the parent's run observes."""
    from repro.api import Scenario

    scenario = Scenario.from_spec(spec).observe(observe)
    emulation = scenario.build()
    return scenario.sim, emulation


def _domain_digests(sim, owned: Sequence[int]) -> Dict[int, Tuple[str, int]]:
    """``{domain: (hexdigest, event_count)}`` of the owned domains'
    native digest folds."""
    return {
        d: (sim.domains[d].digest_hexdigest(), sim.domains[d].events_dispatched)
        for d in owned
    }


def _worker_main(
    conn,
    spec,
    groups: List[List[int]],
    worker_index: int,
    heartbeat_interval_s: float,
    peers: Dict[int, socket.socket],
    observe: bool,
) -> None:
    """One worker: rebuild, then serve commands until 'finish' (or
    'stop', which exits without a reply). ``groups[w]`` lists the
    domains worker ``w`` owns; ``peers`` holds this worker's ends of
    the peer mesh it exchanges mail over.

    A daemon heartbeat thread shares the reply pipe (under a send
    lock) so the supervisor can tell a dead or stopped process from a
    livelocked one; each beat carries the worker's epoch count, so a
    long run that keeps finishing epochs is told apart from one that
    makes no progress. Every owned domain folds its native event
    digest; barrier reports and the ``done`` reply carry ``{domain:
    (hexdigest, count)}``, which is what makes crash recovery
    *verifiable* — the supervisor checks a rerun's digests at the last
    barrier it saw against the recorded ones.
    """
    # A forked worker inherits its parent's whole heap; freezing it
    # keeps the worker's collections (and their pauses, which count
    # against the epoch timeout) to the objects the worker creates.
    gc.freeze()
    owned = groups[worker_index]
    send_lock = threading.Lock()
    stop_beating = threading.Event()
    sim = None
    timing = {"compute_s": 0.0, "exchange_s": 0.0, "codec_s": 0.0}
    #: A command that arrived at a barrier instead of ``go``.
    halted_by = None

    def _send(payload) -> None:
        with send_lock:
            conn.send(payload)

    def _beat() -> None:
        while not stop_beating.wait(heartbeat_interval_s):
            try:
                _send(("hb", sim.epochs if sim is not None else 0))
            except (OSError, ValueError):
                return

    def _barrier(epoch: int, horizon: float) -> None:
        # Observed run: report, then wait for the parent's answer. The
        # wait counts as exchange time: the mail step's mark moves past
        # it, so its next call does not charge it as compute.
        nonlocal halted_by
        waited = perf_counter()  # repro: allow-wallclock
        _send(
            (
                "barrier",
                epoch,
                horizon,
                sim.router.messages_routed,
                _domain_digests(sim, owned),
            )
        )
        answer = conn.recv()
        elapsed = perf_counter() - waited  # repro: allow-wallclock
        timing["exchange_s"] += elapsed
        sync._mark += elapsed
        if answer[0] != "go":
            # finish or stop: every worker halts at this barrier.
            halted_by = answer
            sim.stop()

    threading.Thread(
        target=_beat, daemon=True, name=f"repro-hb-{worker_index}"
    ).start()
    try:
        sim, emulation = _build_from_spec(spec, observe)
        for d in owned:
            sim.domains[d].enable_digest()
        _send(("ready",))
        while True:
            command = halted_by or conn.recv()
            halted_by = None
            op = command[0]
            if op == "run":
                # Every worker runs the serial partitioned loop over its
                # own domains and swaps mail with its peers between
                # epochs — the same windows and injection order, hence
                # byte-identical digests.
                _, run_until, observed = command
                if observed:
                    sim.on_epoch = _barrier
                else:
                    # The loop itself also beats: a busy main thread can
                    # starve the heartbeat thread of the GIL for longer
                    # than an epoch timeout.
                    last_beat = perf_counter()  # repro: allow-wallclock

                    def _progress(_epoch: int, _horizon: float) -> None:
                        nonlocal last_beat
                        now = perf_counter()  # repro: allow-wallclock
                        if now - last_beat >= heartbeat_interval_s:
                            last_beat = now
                            _send(("hb", sim.epochs))

                    sim.on_epoch = _progress
                mesh = PeerMesh(peers)
                sync = PeerSync(sim, emulation, groups, worker_index, mesh, timing)
                sim.run(until=run_until, sync=sync, owned=owned)
                mesh.close()
                if halted_by is None:
                    _send(
                        (
                            "done",
                            {d: sim.domains[d].next_event_time() for d in owned},
                            (sim.epochs, sim.router.messages_routed),
                            _domain_digests(sim, owned),
                        )
                    )
            elif op == "finish":
                _, until = command
                if until is not None:
                    sim.fast_forward(until, owned)
                stop_beating.set()
                stats = RunStats.gather(emulation, owned)
                for name, seconds in timing.items():
                    stats.put(f"parallel.worker_{name}", seconds, worker=worker_index)
                _send(("result", (stats, _domain_digests(sim, owned))))
                conn.close()
                return
            elif op == "stop":
                stop_beating.set()
                conn.close()
                return
            else:  # pragma: no cover - protocol is fixed
                raise ParallelExecutionError(f"unknown command {op!r}")
    except BaseException:
        import traceback

        stop_beating.set()
        try:
            _send(
                (
                    "error",
                    {
                        "worker": worker_index,
                        "domains": list(owned),
                        "epoch": sim.epochs if sim is not None else 0,
                        "traceback": traceback.format_exc(),
                    },
                )
            )
        except (OSError, ValueError):
            # Parent is gone; a nonzero exit is the only report left.
            pass
        raise


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------

class MultiprocessResult:
    """Outcome of one multiprocess run, before report assembly."""

    def __init__(self) -> None:
        self.epochs = 0
        self.messages_routed = 0
        self.domain_digests: Dict[int, str] = {}
        self.domain_digest_events: Dict[int, int] = {}
        #: The run's statistics: the merge of what every worker
        #: gathered over its domains.
        self.stats = RunStats()
        self.wall_time_s = 0.0
        #: Worker spawn + per-process scenario rebuild time, kept out
        #: of ``wall_time_s`` so events/s compares run phases across
        #: backends (the serial leg's build cost is outside its wall
        #: clock too).
        self.spawn_s = 0.0
        self.workers = 0
        #: Set when a budget ran out mid-run (see :attr:`outcome`).
        self.budget_error: Optional[BudgetExceeded] = None
        # Supervision counters (surfaced as resilience.* metrics).
        self.heartbeats_missed = 0
        self.workers_restarted = 0
        self.retries = 0

    @property
    def outcome(self) -> str:
        """``completed``, or ``aborted`` on budget exhaustion."""
        return "completed" if self.budget_error is None else "aborted"

    @property
    def events_by_domain(self) -> Dict[int, int]:
        return self.domain_digest_events

    @property
    def events_dispatched(self) -> int:
        return sum(self.events_by_domain.values())

    @property
    def composed_digest(self) -> str:
        return run_digest(self.domain_digests)


def worker_groups(
    num_domains: int, direct: Dict[Tuple[int, int], float], num_workers: int
) -> List[List[int]]:
    """Deal domains to ``num_workers`` workers as balanced contiguous
    blocks of a depth-first order over the lookahead graph ``direct``
    (a :class:`~repro.engine.sync.LookaheadMatrix`'s direct pairs, read
    as undirected edges).

    The walk starts at domain 0 and takes the lowest-id neighbour
    first; a domain it does not reach starts the next walk, in id
    order. Directly connected domains are then adjacent in the order,
    so a block keeps their mail inside one process instead of pickling
    it across. Block sizes differ by at most one, the larger blocks
    first, and domain 0 is always worker 0's (:meth:`RunStats.merge
    <repro.obs.report.RunStats.merge>` reads build-wide metrics from
    worker 0's part). The grouping never changes a digest: every
    domain's event stream is the same in any process.
    """
    neighbours: List[set] = [set() for _ in range(num_domains)]
    for src, dst in direct:
        neighbours[src].add(dst)
        neighbours[dst].add(src)
    order: List[int] = []
    seen = [False] * num_domains
    for root in range(num_domains):
        stack = [root]
        while stack:
            d = stack.pop()
            if seen[d]:
                continue
            seen[d] = True
            order.append(d)
            stack.extend(sorted(
                (n for n in neighbours[d] if not seen[n]), reverse=True
            ))
    size, extra = divmod(num_domains, num_workers)
    groups = []
    start = 0
    for w in range(num_workers):
        end = start + size + (w < extra)
        groups.append(order[start:end])
        start = end
    return groups


def _mp_context():
    """fork where available (cheap, no spec pickling through argv);
    spawn otherwise. Both paths keep the spec picklable anyway."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn"
    )


def run_multiprocess(
    scenario,
    until: float,
    workers: int = 0,
    policy: Optional[RetryPolicy] = None,
    epoch_timeout_s: float = 30.0,
    heartbeat_interval_s: float = 0.5,
    barrier: Optional[Callable[..., None]] = None,
    chaos_kill: Optional[Tuple[int, int]] = None,
    chaos_signal: int = _signal.SIGKILL,
) -> MultiprocessResult:
    """Run a built partitioned ``scenario`` to ``until`` across
    supervised worker processes and return the
    :class:`MultiprocessResult`, whose ``stats`` merge what every
    worker gathered over its domains.

    ``workers == 0`` means one per domain, capped at the number of CPUs
    this process may run on (oversubscription buys no parallelism and
    pays a context-switch chain at every barrier); an explicit count is
    honored uncapped. Domains are dealt to workers by
    :func:`worker_groups`, so directly connected domains share a
    worker; any worker count from 1 to ``num_domains`` produces
    identical digests.
    The workers drive the epoch loop themselves, swapping mail and
    next-event times peer to peer. Every worker streams its domains'
    native digests (supervision needs them for verified recovery), so
    ``result.composed_digest`` is always set.

    ``barrier(epoch_index, horizon, domain_digests, domain_counts,
    pids=worker_pids)`` (a supervised run's
    :class:`~repro.resilience.checkpoint.RunBarrier`) fires once per
    epoch while every worker waits at that barrier; a
    :class:`~repro.resilience.policy.BudgetExceeded` it raises halts
    the workers there and ends the run with ``result.outcome ==
    "aborted"`` and whatever stats the workers could still report.
    ``chaos_kill=(epoch, worker)`` delivers ``chaos_signal`` to one
    worker just before that epoch runs — the deterministic
    fault-injection hook for the SIGKILL recovery tests. Either one
    makes the run *observed*: the parent releases every epoch barrier
    in turn; otherwise it only watches heartbeats until ``finish``.

    Supervision: a crashed or hung worker stops the whole group, which
    is respawned with a fresh peer mesh and rerun from the start; an
    observed rerun is released silently through the barriers already
    seen and digest-verified at the last one. Recovery follows
    ``policy``; when retries run out a
    :class:`~repro.resilience.supervisor.SupervisionEscalation`
    propagates so the caller can degrade to the serial backend.
    ``heartbeat_interval_s`` and ``epoch_timeout_s`` must be positive.
    """
    for name, seconds in (
        ("heartbeat_interval_s", heartbeat_interval_s),
        ("epoch_timeout_s", epoch_timeout_s),
    ):
        if seconds <= 0:
            raise ValueError(f"{name} must be > 0, got {seconds}")
    sim = scenario.sim
    if getattr(sim, "domains", None) is None or sim.num_domains < 2:
        raise ParallelExecutionError(
            "multiprocess backend needs a partitioned scenario with "
            ">= 2 domains (set backend/num_domains before build)"
        )
    spec = scenario.to_spec()
    num_domains = sim.num_domains
    if workers <= 0:
        # Default pool size: one worker per domain, capped at the CPUs
        # this process may use (its affinity mask, which taskset or a
        # cpuset narrows below the machine's count). Oversubscribing
        # buys no parallelism and pays a context-switch chain at every
        # barrier (on one CPU, four workers made each epoch ~1 ms of
        # pure scheduling). Explicit counts are honored uncapped — the
        # worker-count-invariance tests depend on that.
        cpus = (
            len(os.sched_getaffinity(0))
            if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1
        )
        workers = max(1, min(num_domains, cpus))
    num_workers = min(workers, num_domains)
    owned = worker_groups(num_domains, sim.matrix.direct, num_workers)

    result = MultiprocessResult()
    result.workers = num_workers
    ctx = _mp_context()
    mesh: List[Dict[int, socket.socket]] = []

    def spawn(index: int):
        if index == 0:
            # The supervisor (re)launches the group whole and in index
            # order: each launch gets a fresh mesh.
            mesh[:] = peer_mesh(num_workers)
        peers = mesh[index]
        parent_conn, child_conn = ctx.Pipe()
        proc = ctx.Process(
            target=_worker_main,
            args=(
                child_conn, spec, owned, index, heartbeat_interval_s, peers,
                scenario.registry.enabled,
            ),
            daemon=True,
        )
        proc.start()
        child_conn.close()
        for sock in peers.values():
            sock.close()
        return parent_conn, proc

    supervisor = WorkerSupervisor(
        spawn,
        owned,
        policy=policy,
        epoch_timeout_s=epoch_timeout_s,
        heartbeat_interval_s=heartbeat_interval_s,
    )
    parts: List[Tuple[RunStats, Dict[int, Tuple[str, int]]]] = []
    t0 = perf_counter()  # repro: allow-wallclock
    try:
        supervisor.start()
        # Workers are up and rebuilt; everything before this instant is
        # spawn/build cost, reported separately so wall_time_s measures
        # the run phase — the same phase the serial wall clock covers.
        result.spawn_s = perf_counter() - t0  # repro: allow-wallclock
        t0 = perf_counter()  # repro: allow-wallclock
        if barrier is None and chaos_kill is None:
            # The workers report once at the end (final digests arrive
            # with the stats).
            result.epochs, result.messages_routed = supervisor.run_all(until)[2]
        else:
            while True:
                if (
                    chaos_kill is not None
                    and supervisor.epoch_index == chaos_kill[0]
                ):
                    supervisor.kill(chaos_kill[1] % num_workers, chaos_signal)
                report = supervisor.run_epoch(until)
                if report[0] == "done":
                    result.epochs, result.messages_routed = report[2]
                    break
                _, epoch, horizon, routed, digests = report
                result.epochs, result.messages_routed = epoch + 1, routed
                for d, (digest, count) in digests.items():
                    result.domain_digests[d] = digest
                    result.domain_digest_events[d] = count
                if barrier is not None:
                    barrier(
                        epoch,
                        horizon,
                        dict(result.domain_digests),
                        dict(result.domain_digest_events),
                        pids=supervisor.pids(),
                    )
        result.wall_time_s = perf_counter() - t0  # repro: allow-wallclock
        parts = supervisor.finish(until)
    except BudgetExceeded as exc:
        result.wall_time_s = perf_counter() - t0  # repro: allow-wallclock
        result.budget_error = exc
        try:
            # Best-effort partial stats: no clock fast-forward.
            parts = supervisor.finish(None)
        except ResilienceError:
            parts = []
    finally:
        result.heartbeats_missed = supervisor.heartbeats_missed
        result.workers_restarted = supervisor.workers_restarted
        result.retries = supervisor.retries
        supervisor.shutdown()
    for _, digests in parts:
        for d, (digest, count) in digests.items():
            result.domain_digests[d] = digest
            result.domain_digest_events[d] = count
    result.stats = RunStats.merge([stats for stats, _ in parts])
    result.stats.put("parallel.spawn_s", result.spawn_s)
    return result
