"""The scaling gate: the paper's Table 1 / §3.3 serial-vs-multicore
comparison on an 8-router ring assigned to 4 cores.

``multicore_scaling`` runs the ring once on the serial-partitioned
engine (4 domains), then on the multiprocess backend with each of
:data:`WORKER_COUNTS` workers. Every multiprocess leg must reproduce
the serial leg's composed per-domain digest, or the scenario raises;
the manifest reports one ``speedup[w=<N>]`` per worker count.
Synchronisation cost is kept apart from model work: all legs run the
identical event stream, so a speedup below 1.0 is barrier and IPC
overhead, not a different workload.
"""

from __future__ import annotations

import gc
from time import perf_counter

from repro.bench.harness import BenchResult

SEED = 1

#: Multiprocess worker counts, in run order. Fixed rather than
#: ``min(domains, cpus)`` so the manifest says how many workers ran.
WORKER_COUNTS = (1, 2)


def multicore_scaling(profile: str = "short") -> BenchResult:
    """Serial-partitioned vs multiprocess execution of a 4-core ring."""
    from repro.api import Scenario
    from repro.engine.domain import run_digest
    from repro.engine.parallel import run_multiprocess
    from repro.topology.generators import ring_topology

    seconds = 0.5 if profile == "short" else 2.0
    flows, cores, domains = 8, 4, 4

    def make(backend: str, workers: int = 0):
        return (
            Scenario.from_topology(
                ring_topology(num_routers=8, vns_per_router=2),
                name="bench-ring8",
            )
            .distill("hop-by-hop")
            .assign(cores)
            .netperf(flows=flows)
            .observe(False)
            .seed(SEED)
            .backend(backend, domains=domains, workers=workers)
        )

    result = BenchResult(
        name="multicore_scaling",
        profile=profile,
        seed=SEED,
        params={
            "seconds": seconds, "flows": flows, "cores": cores,
            "domains": domains, "worker_counts": list(WORKER_COUNTS),
            "topology": "ring8x2",
        },
    )
    # Start from a collected heap and keep the cycle collector out of
    # the measured legs (forked workers inherit the setting), so no leg
    # pays for garbage an earlier one left behind.
    gc.collect()
    reenable = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        emulation = make("serial").build()
        result.phases["build_s"] = round(perf_counter() - t0, 6)
        sim = emulation.sim
        for domain in sim.domains:
            domain.enable_digest()
        t1 = perf_counter()
        sim.run(until=seconds)
        serial_s = perf_counter() - t1
        result.phases["serial_run_s"] = round(serial_s, 6)
        result.events = sim.events_dispatched
        result.digest = run_digest(
            {d.domain_id: d.digest_hexdigest() for d in sim.domains}
        )
        for workers in WORKER_COUNTS:
            scenario = make("multiprocess", workers)
            scenario.build()
            mp = run_multiprocess(scenario, until=seconds, workers=workers)
            if mp.composed_digest != result.digest:
                raise RuntimeError(
                    f"multicore_scaling[w={workers}]: multiprocess digest "
                    f"diverged from the serial-partitioned engine "
                    f"({mp.composed_digest[:16]} vs {result.digest[:16]})"
                )
            result.phases[f"multiprocess_w{workers}_run_s"] = round(
                mp.wall_time_s, 6
            )
            result.extras[f"speedup[w={workers}]"] = round(
                serial_s / mp.wall_time_s, 3
            )
    finally:
        if reenable:
            gc.enable()
    # Every multiprocess leg ran the serial leg's event stream, so the
    # last one's epoch, message and per-domain counts stand for all.
    result.extras.update(
        epochs=mp.epochs,
        messages_routed=mp.messages_routed,
        events_by_domain={
            str(d): n for d, n in sorted(mp.events_by_domain.items())
        },
    )
    return result
