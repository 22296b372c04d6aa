"""Multiprocess executor: one worker per domain group, lockstep epochs.

The serial :class:`~repro.engine.sync.PartitionedSimulator` proves the
partitioning correct; this module makes it parallel. Each worker
process rebuilds the *entire* emulation from a picklable
:class:`~repro.api.ScenarioSpec` (build is deterministic per the
repro.check contract, so every worker sees an identical object graph)
and then runs only the event domains it owns. The parent never runs
events: it is the barrier — it routes cross-domain messages, computes
each epoch window, and broadcasts it.

Determinism, regardless of worker count:

* every cross-domain message travels through the parent, which sorts
  the union of all outboxes by ``(time, src_domain, seq)`` — the same
  total order :meth:`DomainRouter.flush` uses in-process — before
  slicing it per worker;
* a worker injects its slice in that order, so heap sequence numbers
  in each destination domain are assigned identically whether the
  sender lived in the same worker or another one;
* the per-domain window vector is computed by the same
  :func:`~repro.engine.sync.epoch_windows` planner the serial
  executor uses, on the same effective next-event vector
  (worker-reported heap minima folded with undelivered message
  times, which equals the post-flush heap minimum the serial
  executor sees).

Hence the composed per-domain digests of a multiprocess run match the
serial partitioned run of the same scenario exactly — the property
``repro-net sanitize --backend multiprocess`` enforces.

Mail crosses the process boundary as *batched frames*: each epoch
command carries one pre-pickled bytes frame holding the worker's
whole mail slice (``None`` when empty), and each reply carries one
frame holding the worker's whole outbox. Frames are opaque to the
supervisor, so crash-replay resends byte-identical commands without
re-encoding, and the single-frame shape is the groundwork for
shared-memory mailboxes later.

Execution is supervised (:mod:`repro.resilience`): every worker runs a
heartbeat thread, replies carry streaming per-domain digests, and the
parent drives the epoch barrier through a
:class:`~repro.resilience.supervisor.WorkerSupervisor` that detects
crashes and hangs, respawns dead workers from the spec, and replays
them to the last completed barrier with a digest check — so a SIGKILL
mid-run yields the same composed digest as an undisturbed run.
A supervised run's barrier hook (budget guard, resume verification,
checkpoints) observes the loop at epoch boundaries and never alters
the epoch structure.

One synchronous round trip per worker per epoch is the price of the
barrier. Per-pair lookahead and epoch coalescing keep that price
bounded by the *real* cross-domain pipe latencies (milliseconds on
the paper topologies, not the 20 us channel floor), so epochs carry
thousands of events instead of a handful; BENCH results are reported
honestly either way (see DESIGN.md §8).
"""

from __future__ import annotations

import multiprocessing
import pickle
import signal as _signal
import threading
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.engine.domain import INFINITY, run_digest
from repro.engine.sync import (
    DomainMessage,
    MSG_HOST,
    epoch_windows,
    fault_barrier,
)
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


def pack_frame(messages: List[DomainMessage]) -> Optional[bytes]:
    """One pickle frame for a whole (already-encoded) mail batch.

    ``None`` stands for the empty batch so quiet epochs ship a single
    byte over the command pipe instead of a pickled empty list.
    """
    if not messages:
        return None
    return pickle.dumps(messages, protocol=pickle.HIGHEST_PROTOCOL)


def unpack_frame(frame: Optional[bytes]) -> List[DomainMessage]:
    if frame is None:
        return []
    return pickle.loads(frame)


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
    owned: List[int],
    worker_index: int = 0,
    heartbeat_interval_s: float = 0.5,
) -> None:
    """One worker: rebuild, then serve epoch commands until 'finish'
    (or 'stop', which exits without a reply).

    A daemon heartbeat thread shares the reply pipe (under a send
    lock) so the supervisor can tell a dead or stopped process from a
    livelocked one. Every owned domain folds its native event digest,
    and every ``done`` reply carries ``{domain: (hexdigest, count)}``,
    which is what makes crash recovery *verifiable* — the supervisor
    replays a respawned worker and compares these digests against the
    pre-crash ones.
    """
    send_lock = threading.Lock()
    stop_beating = threading.Event()

    def _send(payload) -> None:
        with send_lock:
            conn.send(payload)

    def _beat() -> None:
        while not stop_beating.wait(heartbeat_interval_s):
            try:
                _send(("hb",))
            except (OSError, ValueError):
                return

    if heartbeat_interval_s > 0:
        threading.Thread(
            target=_beat, daemon=True, name=f"repro-hb-{worker_index}"
        ).start()
    epoch_index = 0
    try:
        sim, emulation = _build_from_spec(spec)
        for d in owned:
            sim.domains[d].enable_digest()
        _send(
            ("ready", {d: sim.domains[d].next_event_time() for d in owned})
        )
        while True:
            command = conn.recv()
            op = command[0]
            if op == "epoch":
                _, windows, frame = command
                if frame is not None:
                    sim.router.inject(
                        sim.domains,
                        [
                            decode_message(m, emulation)
                            for m in unpack_frame(frame)
                        ],
                    )
                if sim.fault_hook is not None:
                    # Barrier-aligned fault application: every worker
                    # receives the full window list and computes the
                    # same barrier the serial loop does, so all
                    # processes mutate link state at identical points.
                    sim.fault_hook(fault_barrier(windows))
                for d in owned:
                    window = windows[d]
                    if window is not None:
                        sim.domains[d].run_window(window[0], window[1])
                outbox = [
                    encode_message(m) for m in sim.router.take_pending()
                ]
                _send(
                    (
                        "done",
                        {d: sim.domains[d].next_event_time() for d in owned},
                        pack_frame(outbox),
                        _domain_digests(sim, owned),
                    )
                )
                epoch_index += 1
            elif op == "run":
                # Single-worker fast path: this worker owns every
                # domain, so the parent has nothing to route and the
                # whole epoch loop can run in-process — the exact
                # serial-partitioned loop, hence byte-identical
                # digests with zero per-epoch IPC.
                _, run_until = command
                sim.run(until=run_until)
                _send(
                    (
                        "done",
                        {d: sim.domains[d].next_event_time() for d in owned},
                        (sim.epochs, sim.router.messages_routed),
                        _domain_digests(sim, owned),
                    )
                )
                epoch_index += 1
            elif op == "finish":
                _, until = command
                if until is not None:
                    sim.fast_forward(until, owned)
                stop_beating.set()
                _send(
                    ("result", _collect_worker_stats(emulation, sim, owned))
                )
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
                        "epoch": epoch_index,
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

    ``workers == 0`` means one per domain, capped at the machine's
    CPU count (oversubscription buys no parallelism and pays a
    context-switch chain at every barrier); an explicit count is
    honored uncapped. Domains are dealt to workers round-robin; any
    worker count from 1 to ``num_domains`` produces identical
    digests. When a single worker owns every domain (and neither chaos
    nor a barrier hook is in play) the worker runs the whole epoch
    loop in-process — one command, zero per-epoch IPC. Every worker
    streams its domains' native digests (supervision needs them for
    verified recovery), so ``result.composed_digest`` is always set.

    Supervision: a crashed or hung worker is respawned from the spec
    and deterministically replayed to the last completed epoch barrier
    (digest-verified) per ``policy``; when retries run out a
    :class:`~repro.resilience.supervisor.SupervisionEscalation`
    propagates so the caller can degrade to the serial backend.
    ``barrier(epoch_index, horizon, domain_digests, domain_counts,
    pids=worker_pids)`` fires after every epoch (a supervised run's
    :class:`~repro.resilience.checkpoint.RunBarrier`); a
    :class:`~repro.resilience.policy.BudgetExceeded` it raises ends
    the run early with ``result.outcome == "aborted"`` and whatever
    stats the workers could still report. ``chaos_kill=(epoch,
    worker)`` delivers ``chaos_signal`` to one worker just before that
    epoch — the deterministic fault-injection hook for tests and the
    ``chaos_recovery`` benchmark.
    """
    sim = scenario.sim
    if getattr(sim, "domains", None) is None or sim.num_domains < 2:
        raise ParallelExecutionError(
            "multiprocess backend needs a partitioned scenario with "
            ">= 2 domains (set backend/num_domains before build)"
        )
    spec = scenario.to_spec()
    num_domains = sim.num_domains
    if workers <= 0:
        # Default pool size: one worker per domain, capped at the
        # machine's CPU count. Oversubscribing a small machine buys no
        # parallelism and pays a context-switch chain at every barrier
        # (on one CPU, four workers made each epoch ~1 ms of pure
        # scheduling). Explicit counts are honored uncapped — the
        # worker-count-invariance tests depend on that.
        import os as _os

        workers = max(1, min(num_domains, _os.cpu_count() or 1))
    num_workers = min(workers, num_domains)
    owned = [list(range(w, num_domains, num_workers)) for w in range(num_workers)]
    owner_of_domain = [d % num_workers for d in range(num_domains)]

    result = MultiprocessResult()
    result.workers = num_workers
    ctx = _mp_context()

    # Single-worker fast path: one worker owns every domain and runs
    # the whole epoch loop in-process (no per-epoch IPC).
    fast = num_workers == 1 and chaos_kill is None and barrier is None

    def spawn(index: int):
        parent_conn, child_conn = ctx.Pipe()
        proc = ctx.Process(
            target=_worker_main,
            args=(child_conn, spec, owned[index], index, heartbeat_interval_s),
            daemon=True,
        )
        proc.start()
        child_conn.close()
        return parent_conn, proc

    supervisor = WorkerSupervisor(
        spawn,
        owned,
        policy=policy,
        epoch_timeout_s=epoch_timeout_s,
        heartbeat_interval_s=heartbeat_interval_s,
    )
    stats: List[dict] = []
    matrix = sim.matrix
    t0 = perf_counter()  # repro: allow-wallclock
    try:
        next_times: Dict[int, float] = supervisor.start()
        # Workers are up and rebuilt; everything before this instant is
        # spawn/build cost, reported separately so wall_time_s measures
        # the run phase — the same phase the serial wall clock covers.
        result.spawn_s = perf_counter() - t0  # repro: allow-wallclock
        t0 = perf_counter()  # repro: allow-wallclock
        if fast:
            # One worker owns every domain: no cross-worker mail, no
            # global minimum to compute — the worker runs the serial
            # epoch loop itself and reports once at the end (its final
            # digests arrive with the stats).
            result.epochs, result.messages_routed = supervisor.run_all(until)[2]
        else:
            pending: List[DomainMessage] = []
            while True:
                eff_next = [
                    next_times.get(d, INFINITY) for d in range(num_domains)
                ]
                for message in pending:
                    if message.time < eff_next[message.dst_domain]:
                        eff_next[message.dst_domain] = message.time
                windows = epoch_windows(eff_next, matrix, until)
                if windows is None:
                    break
                horizon = fault_barrier(windows)
                pending.sort(key=lambda m: (m.time, m.src_domain, m.seq))
                slices: List[List[DomainMessage]] = [
                    [] for _ in range(num_workers)
                ]
                for message in pending:
                    slices[owner_of_domain[message.dst_domain]].append(message)
                result.messages_routed += len(pending)
                pending = []
                frames = [pack_frame(messages) for messages in slices]
                if (
                    chaos_kill is not None
                    and supervisor.epoch_index == chaos_kill[0]
                ):
                    supervisor.kill(chaos_kill[1] % num_workers, chaos_signal)
                replies = supervisor.run_epoch(windows, frames)
                for reply in replies:
                    next_times.update(reply[1])
                    pending.extend(unpack_frame(reply[2]))
                    for d, (digest, count) in reply[3].items():
                        result.domain_digests[d] = digest
                        result.domain_digest_events[d] = count
                result.epochs += 1
                if barrier is not None:
                    barrier(
                        result.epochs - 1,
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
    if any(host.cpu is not None for host in emulation.hosts):
        result.metric_overlay["edge.cpu_busy_s"] = edge_cpu_busy
        result.metric_overlay["edge.context_switches"] = edge_switches
