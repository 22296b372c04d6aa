"""One measured iteration, run in a fresh interpreter by ``run.py``.

    python3 perfbench/iteration.py --workload NAME --seed N
        [--variant measured|serial] [--traced] [--spans PATH]

Generates the workload's inputs from the seed, imports the program,
times the host's reference loop, then times set-up (``Scenario``
construction and ``build()``), the run
(``Scenario.run`` over the whole virtual horizon, report assembly
included) and the CPU both take, times the reference loop again, and
prints one JSON object on stdout. With ``--traced`` the layer wrappers are installed for this
interpreter only and the span aggregates come back too.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from time import perf_counter

import fingerprint
from reference import reference_s
from workloads import WORKLOADS, flow_bytes


def _cpu_s() -> float:
    """CPU seconds of this process plus its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb() -> float:
    """Peak resident set of this process or any reaped child (Linux
    reports KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def _preimport() -> None:
    """Import the run-path modules a build imports lazily, so set-up
    time measures building, not module loading."""
    import repro.core.faults  # noqa: F401
    import repro.core.queues  # noqa: F401
    import repro.engine.parallel  # noqa: F401
    import repro.traffic  # noqa: F401


def run_iteration(name: str, seed: int, variant: str, traced: bool, spans: str = "") -> dict:
    workload = WORKLOADS[name]
    inputs = workload.make_inputs(seed)
    _preimport()
    reference_before = reference_s()
    multiprocess = workload.multiprocess and variant == "measured"
    tracer = counter = None
    if traced:
        from tracer import DispatchCounter, PARENT_PROBES, RUN_PROBES, SETUP_PROBES, Tracer

        tracer = Tracer(run_id=f"{name}:{seed}:{variant}")
        tracer.install(SETUP_PROBES + (PARENT_PROBES if multiprocess else RUN_PROBES))
    scenario = None
    try:
        cpu0 = _cpu_s()
        t0 = perf_counter()
        scenario = workload.scenario(inputs, variant)
        scenario.build()
        t1 = perf_counter()
        if traced and not multiprocess:
            counter = DispatchCounter()
            scenario.sim.on_dispatch = counter
        cpu1 = _cpu_s()
        report = scenario.run(until=workload.horizon_s)
        t2 = perf_counter()
        cpu2 = _cpu_s()
    finally:
        if tracer is not None:
            tracer.uninstall()
        if counter is not None and scenario is not None:
            scenario.sim.on_dispatch = None
    reference_after = reference_s()
    metrics = report.metrics
    setup_s = t1 - t0
    if multiprocess:
        mp = scenario.mp_result
        run_wall = mp.wall_time_s
        setup_s += mp.spawn_s
        flows = None
    else:
        mp = None
        run_wall = report.wall_time_s
        flows = flow_bytes(scenario)
    delivered = int(metrics.get("accuracy.packets_delivered", 0))
    outcome = fingerprint.outcome(metrics, flows)
    result = {
        "workload": name,
        "seed": seed,
        "variant": variant,
        "traced": traced,
        "setup_s": setup_s,
        "build_s": t1 - t0,
        "run_wall_s": run_wall,
        "total_s": t2 - t0,
        "run_cpu_s": cpu2 - cpu1,
        "setup_cpu_s": cpu1 - cpu0,
        "peak_rss_mb": _peak_rss_mb(),
        "delivered": delivered,
        "delivered_pps": delivered / run_wall if run_wall > 0 else 0.0,
        "fingerprint": outcome,
        "delivery_error_p99_us": outcome["p99_error_us"],
        "report": {k: v for k, v in metrics.items() if not isinstance(v, dict)},
        "horizon_s": workload.horizon_s,
        # Host speed around this iteration (see reference.py).
        "reference_s": (reference_before + reference_after) / 2,
    }
    if mp is not None:
        result["mp"] = {
            "epochs": mp.epochs,
            "messages_routed": mp.messages_routed,
            "spawn_s": mp.spawn_s,
            "wall_time_s": mp.wall_time_s,
            "workers": mp.workers,
            "events_by_domain": {str(d): n for d, n in sorted(mp.events_by_domain.items())},
        }
    if tracer is not None:
        result["spans"] = tracer.stats()
        result["durations"] = tracer.durations
        result["traced_wall_s"] = t2 - t0
        if counter is not None:
            result["events_by_layer"] = dict(counter.by_layer)
        if spans:
            tracer.write_samples(spans)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--variant", default="measured", choices=("measured", "serial"))
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--spans", default="", help="write sampled spans here (JSONL)")
    args = parser.parse_args(argv)
    result = run_iteration(args.workload, args.seed, args.variant, args.traced, args.spans)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
