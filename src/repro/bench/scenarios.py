"""The fixed-seed benchmark scenarios.

These workloads cover the hot paths the ROADMAP cares about:

``dumbbell_netperf``
    The canonical shared-bottleneck TCP workload (the same dumbbell
    the determinism CI sanitizes): four netperf streams through one
    core. Exercises the event loop, the pipe scheduler, and the TCP
    stacks together — the primary events/sec figure of merit.

``capacity_sweep``
    A scaled-down Fig. 4: netperf flows through private emulated
    chains at several (hops, flows) points, reporting the core's
    forwarded pkts/sec per point. Exercises CPU/NIC modeling and the
    per-hop scheduling cost the paper measures.

``sanitize_smoke``
    The determinism sanitizer's double-run digest over the dumbbell
    (~28k events per run at 1 virtual second): proves the optimized
    hot path still produces byte-identical event streams, and times
    the event loop with the sanitizer's per-event probe hooked in.

``multicore_scaling``
    An 8-router ring assigned to 4 cores, run once on the
    serial-partitioned engine and once on the multiprocess backend.
    Reports both backends' events/sec and the wall-clock speedup (or
    slowdown), and cross-checks their composed per-domain digests.

``chaos_recovery``
    The resilience acceptance gate: SIGKILL one multiprocess worker
    mid-run (at the baseline's midpoint epoch) for each of two worker
    counts and require the supervised recovery to reproduce the
    fault-free composed digest and event count exactly.

Every scenario builds its topology in code (no file dependencies), is
seeded, and dispatches an identical event stream for identical
(profile, seed, params) — which is what lets ``--compare`` treat
event-count changes as behavior changes rather than noise.
"""

from __future__ import annotations

import gc
from time import perf_counter
from typing import Callable, Dict, Optional

from repro.bench.harness import BenchResult
from repro.topology.generators import chain_topology, dumbbell_topology

DEFAULT_SEED = 1


def _dumbbell_scenario(seed: int, flows: int):
    from repro.api import Scenario

    return (
        Scenario.from_topology(dumbbell_topology(3), name="bench-dumbbell")
        .distill("hop-by-hop")
        .assign(1)
        .netperf(flows=flows)
        .observe(False)
        .seed(seed)
    )


def dumbbell_netperf(
    profile: str = "short",
    seed: Optional[int] = None,
) -> BenchResult:
    """Bulk TCP through the shared bottleneck: events/sec of the
    uninstrumented event loop (with the native streaming digest
    folded in, so the manifest records what stream was timed).

    The traced perfbench ``dumbbell_tcp`` run (seed 1) puts 57% of
    self time in the engine layer (the dispatch loop plus callback
    code no probe claims), 23% in the core tick path (scheduler
    collect, pipe arrival, ingress, edge hops), 13% in TCP and
    sockets and 5% in physical links (DESIGN.md §7)."""
    seed = DEFAULT_SEED if seed is None else seed
    seconds = 30.0 if profile == "short" else 120.0
    flows = 4
    result = BenchResult(
        name="dumbbell_netperf",
        profile=profile,
        seed=seed,
        params={"seconds": seconds, "flows": flows, "clients_per_side": 3},
    )
    scenario = _dumbbell_scenario(seed, flows)
    t0 = perf_counter()
    emulation = scenario.build()
    build_s = perf_counter() - t0
    sim = emulation.sim
    sim.enable_digest()
    events_before = sim.events_dispatched
    pkts_before = emulation.monitor.packets_entered
    t1 = perf_counter()
    sim.run(until=seconds)
    run_s = perf_counter() - t1
    result.wall_s = run_s
    result.events = sim.events_dispatched - events_before
    result.virtual_pkts = emulation.monitor.packets_entered - pkts_before
    result.virtual_time_s = seconds
    result.phases = {"build_s": round(build_s, 6), "run_s": round(run_s, 6)}
    result.digest = sim.digest_hexdigest()
    result.extras = {
        "packets_delivered": emulation.monitor.packets_delivered,
        "pipe_departures": sum(p.departures for p in emulation.pipes.values()),
    }
    return result.finalize()


def capacity_sweep(
    profile: str = "short",
    seed: Optional[int] = None,
) -> BenchResult:
    """Fig. 4-style single-core capacity points: pkts/sec forwarded
    at several (hops, flows) operating points."""
    import hashlib

    from repro.apps.netperf import TcpStream
    from repro.core import DistillationMode, EmulationConfig, ExperimentPipeline
    from repro.engine import Simulator
    from repro.hardware.calibration import GIGABIT_EDGE_SPEC

    seed = DEFAULT_SEED if seed is None else seed
    if profile == "short":
        points = [(1, 24), (1, 96), (8, 48)]
        warm_s, measure_s = 0.25, 0.5
    else:
        points = [(1, 24), (1, 96), (1, 120), (8, 96), (12, 96)]
        warm_s, measure_s = 0.5, 1.0
    result = BenchResult(
        name="capacity_sweep",
        profile=profile,
        seed=seed,
        params={"points": points, "warm_s": warm_s, "measure_s": measure_s},
    )
    build_s = run_s = 0.0
    events = pkts = 0
    virtual = 0.0
    extras: Dict[str, object] = {}
    point_digests = []
    for hops, flows in points:
        t0 = perf_counter()
        sim = Simulator()
        sim.enable_digest()
        emulation = (
            ExperimentPipeline(sim, seed=seed)
            .create(chain_topology(flows, hops=hops))
            .distill(DistillationMode.HOP_BY_HOP)
            .assign(1)
            .bind(10)
            .run(
                EmulationConfig(edge_spec=GIGABIT_EDGE_SPEC, seed=seed)
            )
        )
        streams = [
            TcpStream(emulation, 2 * flow, 2 * flow + 1) for flow in range(flows)
        ]
        build_s += perf_counter() - t0
        t1 = perf_counter()
        sim.run(until=warm_s)
        emulation.monitor.begin_window(sim.now)
        events_before = sim.events_dispatched
        pkts_before = emulation.monitor.packets_entered
        sim.run(until=warm_s + measure_s)
        run_s += perf_counter() - t1
        events += sim.events_dispatched - events_before
        pkts += emulation.monitor.packets_entered - pkts_before
        virtual += measure_s
        extras[f"pps[{hops}h,{flows}f]"] = round(
            emulation.monitor.window_pps(sim.now), 1
        )
        point_digests.append(sim.digest_hexdigest())
        for stream in streams:
            stream.stop()
    result.wall_s = run_s
    result.events = events
    result.virtual_pkts = pkts
    result.virtual_time_s = virtual
    result.phases = {"build_s": round(build_s, 6), "run_s": round(run_s, 6)}
    # One digest over the sweep: fold the per-point stream digests in
    # point order, so any behavior change at any operating point shows.
    result.digest = hashlib.sha256(
        "".join(point_digests).encode()
    ).hexdigest()
    result.extras = extras
    return result.finalize()


def sanitize_smoke(
    profile: str = "short",
    seed: Optional[int] = None,
) -> BenchResult:
    """Double-run the dumbbell under the determinism sanitizer: times
    the instrumented dispatch path and proves digests stay identical."""
    from repro.check.sanitize import SimSanitizer

    seed = DEFAULT_SEED if seed is None else seed
    seconds = 1.0 if profile == "short" else 5.0
    flows = 4
    result = BenchResult(
        name="sanitize_smoke",
        profile=profile,
        seed=seed,
        params={"seconds": seconds, "flows": flows, "runs": 2},
    )
    digests = []
    events = pkts = 0
    build_s = run_s = 0.0
    for _run in range(2):
        t0 = perf_counter()
        scenario = _dumbbell_scenario(seed, flows)
        emulation = scenario.build()
        build_s += perf_counter() - t0
        sanitizer = SimSanitizer().attach(emulation.sim)
        try:
            t1 = perf_counter()
            emulation.sim.run(until=seconds)
            run_s += perf_counter() - t1
        finally:
            sanitizer.detach()
        digests.append(sanitizer.digest)
        events += sanitizer.dispatched
        pkts += emulation.monitor.packets_entered
    if digests[0] != digests[1]:
        raise RuntimeError(
            f"sanitize_smoke: same-seed digests differ "
            f"({digests[0][:16]} vs {digests[1][:16]}) — the hot path "
            f"became nondeterministic"
        )
    result.wall_s = run_s
    result.events = events
    result.virtual_pkts = pkts
    result.virtual_time_s = 2 * seconds
    result.phases = {"build_s": round(build_s, 6), "run_s": round(run_s, 6)}
    result.digest = digests[0]
    result.extras = {"events_per_run": events // 2}
    return result.finalize()


def multicore_scaling(
    profile: str = "short",
    seed: Optional[int] = None,
    backend: Optional[str] = None,
    domains: Optional[int] = None,
    workers: Optional[int] = None,
) -> BenchResult:
    """Serial-partitioned vs multiprocess execution of a 4-core ring:
    the honest speedup (or slowdown) figure for the epoch-synchronized
    engine.

    Each measured backend runs once with the domains' native digests
    folded in; when both backends run (the default) their composed
    per-domain digests must match or the scenario raises.
    ``backend`` restricts the measurement to one backend, ``domains``
    overrides the domain count (capped at the core count), ``workers``
    sets the multiprocess worker-pool size (0 = one per domain).
    """
    from repro.api import Scenario
    from repro.engine.domain import run_digest
    from repro.engine.parallel import run_multiprocess
    from repro.topology.generators import ring_topology

    seed = DEFAULT_SEED if seed is None else seed
    seconds = 0.5 if profile == "short" else 2.0
    flows, cores = 8, 4
    domains = cores if domains is None else domains
    workers = 0 if workers is None else workers
    if backend in (None, "both"):
        backends = ("serial", "multiprocess")
    elif backend in ("serial", "multiprocess"):
        backends = (backend,)
    else:
        raise ValueError(
            f"unknown backend {backend!r}; valid: serial, multiprocess, both"
        )

    def make(name: str):
        return (
            Scenario.from_topology(
                ring_topology(num_routers=8, vns_per_router=2),
                name="bench-ring8",
            )
            .distill("hop-by-hop")
            .assign(cores)
            .netperf(flows=flows)
            .observe(False)
            .seed(seed)
            .backend(name, domains=domains, workers=workers)
        )

    result = BenchResult(
        name="multicore_scaling",
        profile=profile,
        seed=seed,
        params={
            "seconds": seconds, "flows": flows, "cores": cores,
            "domains": domains, "workers": workers,
            "backends": list(backends), "topology": "ring8x2",
        },
    )
    build_s = 0.0
    walls: Dict[str, float] = {}
    digests: Dict[str, str] = {}
    events = pkts = 0
    extras: Dict[str, object] = {}
    for name in backends:
        if name == "serial":
            t0 = perf_counter()
            emulation = make("serial").build()
            build_s += perf_counter() - t0
            sim = emulation.sim
            for domain in sim.domains:
                domain.enable_digest()
            t1 = perf_counter()
            sim.run(until=seconds)
            walls["serial"] = perf_counter() - t1
            events += sim.events_dispatched
            pkts += emulation.monitor.packets_entered
            digests["serial"] = run_digest(
                {d.domain_id: d.digest_hexdigest() for d in sim.domains}
            )
            extras["serial_events_per_s"] = round(
                sim.events_dispatched / walls["serial"], 1
            )
        else:
            t0 = perf_counter()
            scenario = make("multiprocess")
            emulation = scenario.build()
            build_s += perf_counter() - t0
            mp_timing = run_multiprocess(
                scenario, until=seconds, workers=workers
            )
            walls["multiprocess"] = mp_timing.wall_time_s
            digests["multiprocess"] = mp_timing.composed_digest
            events += mp_timing.events_dispatched
            pkts += emulation.monitor.packets_entered
            extras.update(
                multiprocess_events_per_s=round(
                    mp_timing.events_dispatched / mp_timing.wall_time_s, 1
                ),
                epochs=mp_timing.epochs,
                messages_routed=mp_timing.messages_routed,
                workers=mp_timing.workers,
                events_by_domain={
                    str(d): n
                    for d, n in sorted(mp_timing.events_by_domain.items())
                },
            )
    if len(digests) == 2 and digests["serial"] != digests["multiprocess"]:
        raise RuntimeError(
            f"multicore_scaling: multiprocess digest diverged from the "
            f"serial-partitioned engine "
            f"({digests['multiprocess'][:16]} vs {digests['serial'][:16]})"
        )
    if len(walls) == 2:
        extras["speedup"] = round(
            walls["serial"] / walls["multiprocess"], 3
        )

    result.wall_s = sum(walls.values())
    result.events = events
    result.virtual_pkts = pkts
    result.virtual_time_s = len(backends) * seconds
    result.phases = {"build_s": round(build_s, 6)}
    for name, wall in walls.items():
        result.phases[f"{name}_run_s"] = round(wall, 6)
    result.digest = digests.get("serial") or digests.get("multiprocess")
    result.extras = extras
    return result.finalize()


def chaos_recovery(
    profile: str = "short",
    seed: Optional[int] = None,
    workers: Optional[int] = None,
) -> BenchResult:
    """SIGKILL a multiprocess worker mid-run and prove the supervisor
    recovers it with the event stream intact.

    First a fault-free sanitized run fixes the baseline composed
    digest and epoch count; then, for each worker count, worker 0 is
    killed at the midpoint epoch and the recovered run's digest and
    event count must be byte-identical to the baseline (with at least
    one recorded restart) or the scenario raises.
    """
    import signal as _signal

    from repro.api import Scenario
    from repro.engine.parallel import run_multiprocess
    from repro.faults import FaultPlan, LinkDown, LinkUp, Perturbation

    seed = DEFAULT_SEED if seed is None else seed
    seconds = 0.25 if profile == "short" else 1.0
    flows, cores = 4, 4
    worker_counts = (workers,) if workers else (2, 4)

    def make():
        topology = dumbbell_topology(3)
        link_ids = sorted(topology.links)
        # A mixed declarative timeline rides the scenario spec into
        # every worker: recovery below must reproduce the baseline
        # digest *through* link churn and perturbation, proving that
        # restarted workers replay the fault timeline byte-identically.
        plan = FaultPlan.of(
            LinkDown(seconds * 0.2, link_ids[0]),
            LinkUp(seconds * 0.6, link_ids[0]),
            Perturbation(
                start_s=seconds * 0.1,
                stop_s=seconds * 0.9,
                period_s=seconds * 0.2,
                link_fraction=0.25,
            ),
        )
        return (
            Scenario.from_topology(topology, name="bench-dumbbell")
            .distill("hop-by-hop")
            .assign(cores)
            .netperf(flows=flows)
            .observe(False)
            .seed(seed)
            .backend("multiprocess", domains=cores)
            .faults(plan)
        )

    result = BenchResult(
        name="chaos_recovery",
        profile=profile,
        seed=seed,
        params={
            "seconds": seconds, "flows": flows, "cores": cores,
            "worker_counts": list(worker_counts), "signal": "SIGKILL",
        },
    )

    t0 = perf_counter()
    scenario = make()
    scenario.build()
    build_s = perf_counter() - t0
    t1 = perf_counter()
    baseline = run_multiprocess(
        scenario, until=seconds, workers=worker_counts[0]
    )
    baseline_s = perf_counter() - t1
    kill_epoch = max(1, baseline.epochs // 2)

    events = baseline.events_dispatched
    extras: Dict[str, object] = {
        "baseline_digest": baseline.composed_digest,
        "baseline_events": baseline.events_dispatched,
        "kill_epoch": kill_epoch,
        "epochs": baseline.epochs,
    }
    phases = {"build_s": round(build_s, 6), "baseline_s": round(baseline_s, 6)}
    chaos_wall = 0.0
    for count in worker_counts:
        t2 = perf_counter()
        scenario = make()
        scenario.build()
        chaos = run_multiprocess(
            scenario, until=seconds, workers=count,
            chaos_kill=(kill_epoch, 0), chaos_signal=_signal.SIGKILL,
        )
        wall = perf_counter() - t2
        chaos_wall += wall
        events += chaos.events_dispatched
        if chaos.composed_digest != baseline.composed_digest:
            raise RuntimeError(
                f"chaos_recovery[w={count}]: recovered digest diverged "
                f"({chaos.composed_digest[:16]} vs "
                f"{baseline.composed_digest[:16]})"
            )
        if chaos.events_dispatched != baseline.events_dispatched:
            raise RuntimeError(
                f"chaos_recovery[w={count}]: recovered event count "
                f"{chaos.events_dispatched} != baseline "
                f"{baseline.events_dispatched}"
            )
        if chaos.workers_restarted < 1:
            raise RuntimeError(
                f"chaos_recovery[w={count}]: no worker restart recorded "
                f"— the kill never landed"
            )
        phases[f"chaos_w{count}_s"] = round(wall, 6)
        extras[f"restarts[w={count}]"] = chaos.workers_restarted
        extras[f"retries[w={count}]"] = chaos.retries

    result.wall_s = baseline_s + chaos_wall
    result.events = events
    result.virtual_pkts = 0
    result.virtual_time_s = (1 + len(worker_counts)) * seconds
    result.phases = phases
    result.digest = baseline.composed_digest
    result.extras = extras
    return result.finalize()


SCENARIOS: Dict[str, Callable[..., BenchResult]] = {
    "dumbbell_netperf": dumbbell_netperf,
    "capacity_sweep": capacity_sweep,
    "sanitize_smoke": sanitize_smoke,
    "multicore_scaling": multicore_scaling,
    "chaos_recovery": chaos_recovery,
}


def run_scenario(
    name: str,
    profile: str = "short",
    seed: Optional[int] = None,
    repeats: int = 1,
    **overrides,
) -> BenchResult:
    """Run one registered scenario by name.

    ``overrides`` (e.g. ``backend=``, ``domains=``, ``workers=``) are
    forwarded to scenarios that parameterize on them; passing one to a
    scenario that does not raises :class:`ValueError`.

    ``repeats`` runs the scenario that many times and reports the
    best run by ``events_per_s`` — the standard shared-machine
    methodology: wall-clock noise (scheduler preemption, cache
    pollution from other tenants) only ever slows a run down, so the
    fastest repeat is the closest observation of the true cost.
    Every repeat must dispatch the identical event stream; a digest
    or event-count mismatch across repeats raises, turning the bench
    into a free determinism check.
    """
    try:
        fn = SCENARIOS[name]
    except KeyError:
        raise ValueError(
            f"unknown bench scenario {name!r}; "
            f"valid: {', '.join(sorted(SCENARIOS))}"
        ) from None
    overrides = {k: v for k, v in overrides.items() if v is not None}
    if overrides:
        import inspect

        accepted = inspect.signature(fn).parameters
        unsupported = sorted(k for k in overrides if k not in accepted)
        if unsupported:
            raise ValueError(
                f"scenario {name!r} does not parameterize on "
                f"{', '.join(unsupported)}"
            )
    # Benchmark hygiene: start each scenario from a collected heap and
    # keep the cycle collector out of the measured region. Without
    # this, garbage carried over from a previous scenario in the same
    # process makes gen-2 collections progressively more expensive and
    # skews later measurements by 20%+ (the simulation itself does not
    # rely on GC: the event heap drains and pipes hold no cycles).
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    gc.collect()
    reenable = gc.isenabled()
    gc.disable()
    try:
        best: Optional[BenchResult] = None
        for _ in range(repeats):
            result = fn(profile=profile, seed=seed, **overrides)
            if best is not None:
                if result.events != best.events:
                    raise RuntimeError(
                        f"{name}: event count varied across repeats "
                        f"({best.events} vs {result.events}) — the "
                        f"fixed-seed scenario is nondeterministic"
                    )
                if (
                    result.digest
                    and best.digest
                    and result.digest != best.digest
                ):
                    raise RuntimeError(
                        f"{name}: digest varied across repeats "
                        f"({best.digest[:16]} vs {result.digest[:16]})"
                    )
            if best is None or result.events_per_s > best.events_per_s:
                best = result
        if repeats > 1:
            best.extras["repeats"] = repeats
        return best
    finally:
        if reenable:
            gc.enable()
