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
  executor sees), so all agree on every window and every
  :func:`~repro.engine.sync.fault_barrier`.

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

from repro.engine.domain import INFINITY, run_digest
from repro.engine.sync import DomainMessage, MSG_HOST
from repro.resilience.policy import (
    BudgetExceeded,
    ResilienceError,
    RetryPolicy,
)
from repro.resilience.supervisor import WorkerSupervisor

#: Payload encodings on the wire between processes.
_ENC_DESCRIPTOR = 0
_ENC_PACKET = 1


class ParallelExecutionError(RuntimeError):
    """A worker failed; carries the remote traceback text."""


# ----------------------------------------------------------------------
# Message encoding
# ----------------------------------------------------------------------

def encode_message(message: DomainMessage) -> DomainMessage:
    """Replace the live payload with picklable plain data.

    Descriptors reference live :class:`~repro.core.pipe.Pipe` objects,
    which cannot cross a process boundary; they are flattened to pipe
    ids and rehydrated against the destination worker's identical
    pipe table. Packets and segments are plain data already.
    """
    if message.kind == MSG_HOST:
        return message._replace(payload=(_ENC_PACKET, message.payload))
    descriptor = message.payload
    return message._replace(
        payload=(
            _ENC_DESCRIPTOR,
            descriptor.packet,
            tuple(pipe.id for pipe in descriptor.pipes),
            descriptor.hop_index,
            descriptor.entry_core,
            descriptor.entered_at,
            descriptor.ideal_time,
            descriptor.tunnel_hops,
        )
    )


def decode_message(message: DomainMessage, emulation) -> DomainMessage:
    """Rehydrate an encoded payload against this process's emulation."""
    from repro.core.packet import PacketDescriptor

    payload = message.payload
    if payload[0] == _ENC_PACKET:
        return message._replace(payload=payload[1])
    (_, packet, pipe_ids, hop_index, entry_core, entered_at,
     ideal_time, tunnel_hops) = payload
    pipes_by_id = emulation._pipes_by_id
    descriptor = PacketDescriptor.acquire(
        packet,
        tuple(pipes_by_id[pipe_id] for pipe_id in pipe_ids),
        entry_core,
        entered_at,
    )
    descriptor.hop_index = hop_index
    descriptor.ideal_time = ideal_time
    descriptor.tunnel_hops = tunnel_hops
    return message._replace(payload=descriptor)


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

    ``last_batch`` is the mail injected by the latest call: the loop's
    final call delivers mail into no epoch, so callers subtract it
    from the router's count.
    """

    def __init__(self, sim, emulation, groups, index: int, mesh: PeerMesh,
                 timing: Dict[str, float]) -> None:
        self._sim = sim
        self._emulation = emulation
        self._groups = groups
        self._index = index
        self._owner = {d: w for w, group in enumerate(groups) for d in group}
        self._mesh = mesh
        self._timing = timing
        self.last_batch = 0
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
            emulation = self._emulation
            for peer, frame in received.items():
                peer_heads, peer_min, mail = unpack_frame(frame)
                for d, t in zip(self._groups[peer], peer_heads):
                    next_times[d] = t
                minima.append(peer_min)
                inbox.extend(decode_message(m, emulation) for m in mail)
            start += arrived - sent
        for mins in minima:
            for d, t in mins.items():
                if t < next_times[d]:
                    next_times[d] = t
        self._mark = perf_counter()  # repro: allow-wallclock
        timing["codec_s"] += self._mark - start
        inbox.sort(key=lambda m: (m.time, m.src_domain, m.seq))
        sim.router.inject(domains, inbox)
        self.last_batch = len(inbox)
        return next_times


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------

def _build_from_spec(spec):
    """Rebuild the scenario in this process (identical by determinism
    of the build path) and return (partitioned sim, emulation). The
    parent checked the spec partitions before spawning."""
    from repro.api import Scenario

    scenario = Scenario.from_spec(spec)
    emulation = scenario.build()
    return scenario.sim, emulation


def _domain_digests(sim, owned: Sequence[int]) -> Dict[int, Tuple[str, int]]:
    """``{domain: (hexdigest, event_count)}`` of the owned domains'
    native digest folds."""
    return {
        d: (sim.domains[d].digest_hexdigest(), sim.domains[d].events_dispatched)
        for d in owned
    }


def _collect_worker_stats(emulation, sim, owned: Sequence[int]) -> dict:
    """Everything the parent needs to reconstruct run statistics."""
    owned_set = set(owned)
    cores: Dict[int, Dict[str, Any]] = {}
    for core in emulation.cores:
        if core.domain_id not in owned_set:
            continue
        cores[core.index] = {
            "wakeups": core.scheduler.wakeups,
            "hops_serviced": core.scheduler.hops_serviced,
            "cpu_busy_s": core.cpu_busy_s,
            "packets_processed": core.packets_processed,
            "hops_processed": core.hops_processed,
            "tick_overruns": core.tick_overruns,
            "tunnels_sent": core.tunnels_sent,
            "tunnels_received": core.tunnels_received,
            "nic_in_bytes": (
                core.ingress_link.bytes_sent if core.ingress_link else 0
            ),
            "nic_out_bytes": (
                core.egress_link.bytes_sent if core.egress_link else 0
            ),
        }
    pipes: Dict[int, Tuple] = {}
    domain_of_core = emulation._domain_of_core
    for pipe in emulation.pipes.values():
        if domain_of_core[pipe.owner] not in owned_set:
            continue
        pipes[pipe.id] = (
            pipe.arrivals,
            pipe.departures,
            pipe.drops_overflow,
            pipe.drops_random,
            pipe.drops_down,
            pipe.bytes_accepted,
            pipe.bytes_through,
            pipe.peak_backlog,
        )
    hosts: Dict[int, Tuple[int, int]] = {}
    edge_cpu_busy = 0.0
    edge_switches = 0
    for host in emulation.hosts:
        if emulation._domain_of_host[host.index] not in owned_set:
            continue
        hosts[host.index] = (host.uplink.bytes_sent, host.downlink.bytes_sent)
        if host.cpu is not None:
            stats = host.cpu.stats()
            edge_cpu_busy += stats["busy_s"]
            edge_switches += stats["context_switches"]
    tcp: Dict[str, int] = {}
    for vn in emulation.vns:
        if emulation.domain_of_vn(vn.vn_id) not in owned_set:
            continue
        for key, value in vn.stack.tcp_stats().items():
            tcp[key] = tcp.get(key, 0) + value
    monitor = emulation.monitor
    return {
        # Progress of domains this worker *owns* — a local read that the
        # ownership model cannot distinguish from a foreign peek.
        "domains": {
            d: (sim.domains[d]._dispatched, sim.domains[d]._now)  # repro: allow-cross-domain-clock
            for d in owned
        },
        "cores": cores,
        "pipes": pipes,
        "hosts": hosts,
        "edge_cpu": (edge_cpu_busy, edge_switches),
        "tcp": tcp,
        "monitor": {
            "packets_entered": monitor.packets_entered,
            "packets_delivered": monitor.packets_delivered,
            "packets_unroutable": monitor.packets_unroutable,
            "physical_drops_ring": monitor.physical_drops_ring,
            "physical_drops_egress": monitor.physical_drops_egress,
            "physical_drops_uplink": monitor.physical_drops_uplink,
            "tunnels": monitor.tunnels,
            "error_samples": list(monitor.error_samples),
        },
        "digests": _domain_digests(sim, owned),
        # Each worker routes its own lookups: the run's work is the sum.
        "routing": emulation.routing.stats(),
        # Every worker applies the whole fault timeline identically;
        # the parent adopts the view of the worker owning domain 0.
        "faults": (
            emulation.fault_applier.counters()
            if emulation.fault_applier is not None
            else None
        ),
    }


def _worker_main(
    conn,
    spec,
    groups: List[List[int]],
    worker_index: int,
    heartbeat_interval_s: float,
    peers: Dict[int, socket.socket],
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
        sim, emulation = _build_from_spec(spec)
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
                            (
                                sim.epochs,
                                sim.router.messages_routed - sync.last_batch,
                            ),
                            _domain_digests(sim, owned),
                        )
                    )
            elif op == "finish":
                _, until = command
                if until is not None:
                    sim.fast_forward(until, owned)
                stop_beating.set()
                stats = _collect_worker_stats(emulation, sim, owned)
                stats["timing"] = timing
                _send(("result", stats))
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
        self.events_by_domain: Dict[int, int] = {}
        self.domain_digests: Dict[int, str] = {}
        self.domain_digest_events: Dict[int, int] = {}
        #: Flat metric overrides for stats that live in worker object
        #: state the parent cannot patch (TCP stacks, edge CPUs).
        self.metric_overlay: Dict[str, Any] = {}
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
    def events_dispatched(self) -> int:
        return sum(self.events_by_domain.values())

    @property
    def composed_digest(self) -> str:
        return run_digest(self.domain_digests)


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
    supervised worker processes, patch its (never-run) parent objects
    with the merged statistics, and return the
    :class:`MultiprocessResult`.

    ``workers == 0`` means one per domain, capped at the number of CPUs
    this process may run on (oversubscription buys no parallelism and
    pays a context-switch chain at every barrier); an explicit count is
    honored uncapped. Domains are dealt to workers round-robin; any
    worker count from 1 to ``num_domains`` produces identical digests.
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
    owned = [list(range(w, num_domains, num_workers)) for w in range(num_workers)]

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
            args=(child_conn, spec, owned, index, heartbeat_interval_s, peers),
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
    stats: List[dict] = []
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
        stats = supervisor.finish(until)
    except BudgetExceeded as exc:
        result.wall_time_s = perf_counter() - t0  # repro: allow-wallclock
        result.budget_error = exc
        try:
            # Best-effort partial stats: no clock fast-forward.
            stats = supervisor.finish(None)
        except ResilienceError:
            stats = []
    finally:
        result.heartbeats_missed = supervisor.heartbeats_missed
        result.workers_restarted = supervisor.workers_restarted
        result.retries = supervisor.retries
        supervisor.shutdown()
    result.metric_overlay["parallel.spawn_s"] = result.spawn_s
    for index, worker_stats in enumerate(stats):
        for name, seconds in worker_stats["timing"].items():
            result.metric_overlay[
                f"parallel.worker_{name}{{worker={index}}}"
            ] = seconds

    _merge_stats(
        scenario,
        stats,
        until if result.outcome == "completed" else None,
        result,
    )
    return result


def _merge_stats(scenario, stats: List[dict], until, result) -> None:
    """Patch the parent's never-run emulation with worker state so the
    standard report path reads true numbers."""
    sim = scenario.sim
    emulation = scenario.emulation
    monitor = emulation.monitor
    edge_cpu_busy = 0.0
    edge_switches = 0
    tcp_totals: Dict[str, int] = {}
    routing_totals: Dict[str, int] = {}
    samples: List[Tuple[int, List[float]]] = []
    for worker_stats in stats:
        for d, (dispatched, now) in worker_stats["domains"].items():
            sim.domains[d].restore_progress(dispatched, now)
            result.events_by_domain[d] = dispatched
        for index, fields in worker_stats["cores"].items():
            core = emulation.cores[index]
            core.scheduler.wakeups = fields["wakeups"]
            core.scheduler.hops_serviced = fields["hops_serviced"]
            core.cpu_busy_s = fields["cpu_busy_s"]
            core.packets_processed = fields["packets_processed"]
            core.hops_processed = fields["hops_processed"]
            core.tick_overruns = fields["tick_overruns"]
            core.tunnels_sent = fields["tunnels_sent"]
            core.tunnels_received = fields["tunnels_received"]
            if core.ingress_link is not None:
                core.ingress_link.bytes_sent = fields["nic_in_bytes"]
            if core.egress_link is not None:
                core.egress_link.bytes_sent = fields["nic_out_bytes"]
        for pipe_id, values in worker_stats["pipes"].items():
            pipe = emulation._pipes_by_id[pipe_id]
            (pipe.arrivals, pipe.departures, pipe.drops_overflow,
             pipe.drops_random, pipe.drops_down, pipe.bytes_accepted,
             pipe.bytes_through, pipe.peak_backlog) = values
        for host_index, (up, down) in worker_stats["hosts"].items():
            host = emulation.hosts[host_index]
            host.uplink.bytes_sent = up
            host.downlink.bytes_sent = down
        busy, switches = worker_stats["edge_cpu"]
        edge_cpu_busy += busy
        edge_switches += switches
        for key, value in worker_stats["tcp"].items():
            tcp_totals[key] = tcp_totals.get(key, 0) + value
        for key, value in worker_stats["routing"].items():
            routing_totals[key] = routing_totals.get(key, 0) + value
        m = worker_stats["monitor"]
        monitor.packets_entered += m["packets_entered"]
        monitor.packets_delivered += m["packets_delivered"]
        monitor.packets_unroutable += m["packets_unroutable"]
        monitor.physical_drops_ring += m["physical_drops_ring"]
        monitor.physical_drops_egress += m["physical_drops_egress"]
        monitor.physical_drops_uplink += m["physical_drops_uplink"]
        monitor.tunnels += m["tunnels"]
        for d, (digest, count) in worker_stats["digests"].items():
            result.domain_digests[d] = digest
            result.domain_digest_events[d] = count
        min_domain = min(worker_stats["domains"]) if worker_stats["domains"] else 0
        fault_counters = worker_stats.get("faults")
        if (
            fault_counters is not None
            and emulation.fault_applier is not None
            and min_domain == 0
        ):
            emulation.fault_applier.absorb(fault_counters)
        samples.append((min_domain, m["error_samples"]))
    # Error samples merged in domain order so the stored list is
    # worker-count independent (derived stats are order-invariant
    # regardless, via the sort in monitor.report()).
    for _, worker_samples in sorted(samples, key=lambda pair: pair[0]):
        room = monitor.max_samples - len(monitor.error_samples)
        if room <= 0:
            break
        monitor.error_samples.extend(worker_samples[:room])
    sim.epochs = result.epochs
    sim.router.messages_routed = result.messages_routed
    if until is not None:
        # The parent's kernels never ran; their heaps still hold the
        # initial schedule, so this alignment cannot be strict.
        sim.fast_forward(until, strict=False)
    for key, value in tcp_totals.items():
        result.metric_overlay[f"tcp.{key}"] = value
    for key, value in routing_totals.items():
        result.metric_overlay[f"routing.{key}"] = value
    if any(host.cpu is not None for host in emulation.hosts):
        result.metric_overlay["edge.cpu_busy_s"] = edge_cpu_busy
        result.metric_overlay["edge.context_switches"] = edge_switches
