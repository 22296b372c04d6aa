"""repro-net: the topology toolbox.

The paper's Create phase "includes filters to convert all of these
formats to GML" and lets users annotate graphs with attributes their
source lacks. This CLI provides those offline steps:

.. code-block:: sh

    repro-net generate ring --routers 20 --vns 20 -o ring.gml
    repro-net generate transit-stub --seed 3 -o ts.gml
    repro-net info ts.gml
    repro-net annotate ts.gml --seed 1 -o annotated.gml
    repro-net distill ring.gml --mode last-mile -o distilled.gml
    repro-net route ts.gml --src 40 --dst 90
    repro-net run ts.gml --cores 2 --flows 8 --report out.json
    repro-net run ts.gml --cores 4 --backend multiprocess --workers 2
    repro-net run ts.gml --checkpoint-every 0.25 --checkpoint run.ckpt --max-events 100000
    repro-net run --resume run.ckpt --expect-digests examples/dumbbell.digests.json
    repro-net check src/
    repro-net sanitize examples/dumbbell.gml --seeds 1,2,3
    repro-net sanitize ring8.gml --cores 4 --backend multiprocess
    repro-net bench --profile short
    repro-net exp ls
    repro-net exp run fig4 --quick
    repro-net exp report fig4
    repro-net exp resume fig8
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.api import DISTILL_MODES
from repro.core.distill import DistillationMode, distill
from repro.engine.randomness import RngRegistry
from repro.faults import FaultPlanError
from repro.routing import CachedRouting, route_latency
from repro.topology import (
    LinkKind,
    annotate_links,
    classify_link,
    dumbbell_topology,
    load_gml,
    ring_topology,
    save_gml,
    star_topology,
    transit_stub_topology,
    TransitStubSpec,
    waxman_topology,
)
from repro.topology.annotate import LinkClassParams

_MODES = DISTILL_MODES


def _cmd_generate(args) -> int:
    rng = RngRegistry(args.seed).stream("generate")
    if args.shape == "ring":
        topology = ring_topology(num_routers=args.routers, vns_per_router=args.vns)
    elif args.shape == "star":
        topology = star_topology(args.vns)
    elif args.shape == "dumbbell":
        topology = dumbbell_topology(clients_per_side=args.vns)
    elif args.shape == "waxman":
        topology = waxman_topology(args.routers, rng, clients_per_router=args.vns)
    elif args.shape == "transit-stub":
        topology = transit_stub_topology(
            TransitStubSpec(
                transit_nodes_per_domain=args.routers,
                clients_per_stub_node=max(1, args.vns),
            ),
            rng,
        )
    else:  # pragma: no cover - argparse restricts choices
        raise ValueError(args.shape)
    save_gml(topology, args.output)
    print(f"wrote {topology.num_nodes} nodes / {topology.num_links} links to {args.output}")
    return 0


def _cmd_info(args) -> int:
    topology = load_gml(args.input)
    print(f"name:    {topology.name}")
    print(f"nodes:   {topology.num_nodes} ({len(topology.clients())} clients)")
    print(f"links:   {topology.num_links}")
    print(f"connected: {topology.is_connected()}")
    by_class = {}
    for link in topology.links.values():
        by_class.setdefault(classify_link(topology, link), []).append(link)
    for link_class, links in sorted(by_class.items(), key=lambda kv: kv[0].value):
        bandwidths = sorted(l.bandwidth_bps for l in links)
        print(
            f"  {link_class.value:>16}: {len(links):>5} links, "
            f"bw {bandwidths[0]/1e6:g}-{bandwidths[-1]/1e6:g} Mb/s"
        )
    return 0


def _cmd_annotate(args) -> int:
    topology = load_gml(args.input)
    params = {
        LinkKind.TRANSIT_TRANSIT: LinkClassParams(
            bandwidth_bps=(args.transit_bw * 1e6,) * 2,
            latency_s=(0.050, 0.050),
            cost=(20, 40),
        ),
        LinkKind.STUB_TRANSIT: LinkClassParams(
            bandwidth_bps=(args.stub_bw * 1e6,) * 2,
            latency_s=(0.010, 0.010),
            cost=(10, 20),
        ),
        LinkKind.STUB_STUB: LinkClassParams(
            bandwidth_bps=(args.stub_bw * 1e6,) * 2,
            latency_s=(0.005, 0.005),
            cost=(1, 5),
        ),
        LinkKind.CLIENT_STUB: LinkClassParams(
            bandwidth_bps=(args.client_bw * 1e6,) * 2,
            latency_s=(0.001, 0.001),
        ),
    }
    count = annotate_links(topology, params, RngRegistry(args.seed).stream("annotate"))
    save_gml(topology, args.output)
    print(f"annotated {count} links -> {args.output}")
    return 0


def _cmd_distill(args) -> int:
    topology = load_gml(args.input)
    mode = _MODES[args.mode]
    result = distill(topology, mode, walk_in=args.walk_in, walk_out=args.walk_out)
    save_gml(result.topology, args.output)
    print(
        f"{args.mode}: {result.total_pipes} pipes "
        f"(preserved {result.preserved_links}, mesh {result.mesh_links}, "
        f"collapsed {result.collapsed_links}) -> {args.output}"
    )
    return 0


def _cmd_route(args) -> int:
    topology = load_gml(args.input)
    routing = CachedRouting(topology)
    route = routing.route(args.src, args.dst)
    if route is None:
        print(f"no route from {args.src} to {args.dst}")
        return 1
    path = [str(args.src)] + [str(hop.dst) for hop in route]
    print(" -> ".join(path))
    print(f"{len(route)} hops, {route_latency(route) * 1e3:.2f} ms")
    return 0


def _resolve_report_paths(out_dir, report=None, csv=None, basename="report"):
    """One rule for where run artifacts land, shared by run/exp:
    explicit paths win; otherwise ``--out-dir`` (created on demand)
    supplies ``<out-dir>/<basename>.json`` and ``.csv``."""
    import os

    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        if report is None:
            report = os.path.join(out_dir, f"{basename}.json")
        if csv is None:
            csv = os.path.join(out_dir, f"{basename}.csv")
    return report, csv


def _emit_report(args, report) -> None:
    args.report, args.csv = _resolve_report_paths(
        getattr(args, "out_dir", None), args.report, args.csv
    )
    if args.report:
        report.save(args.report)
        print(f"wrote {args.report}")
    if args.csv:
        report.save_csv(args.csv)
        print(f"wrote {args.csv}")
    if args.report or args.csv:
        print(report.summary())
    else:
        print(report.to_json())


def _load_digests(path: str) -> dict:
    """``{seed: digest}`` from a committed ``*.digests.json`` baseline
    (keys starting with ``_`` are comments)."""
    import json

    with open(path) as handle:
        return {
            int(key): value
            for key, value in json.load(handle).items()
            if not key.startswith("_")
        }


def _cmd_run(args) -> int:
    """The Run phase: drive a Scenario over a GML topology and emit
    its RunReport. With --resume/--checkpoint-every/--max-* the
    supervised (resilient) run path applies; budget aborts save the
    partial report and exit 3."""
    from repro.api import Scenario
    from repro.resilience import (
        CheckpointDivergence,
        CheckpointError,
        RunAborted,
    )

    if args.resume:
        try:
            scenario = Scenario.from_checkpoint(args.resume)
        except CheckpointError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
    else:
        if args.seconds is None:
            args.seconds = 3.0
        if not args.input:
            print(
                "error: a GML topology is required unless --resume is given",
                file=sys.stderr,
            )
            return 2
        scenario = (
            Scenario.from_gml(args.input)
            .distill(args.mode, walk_in=args.walk_in, walk_out=args.walk_out)
            .assign(args.cores)
            .bind(args.hosts)
            .seed(args.seed)
            .netperf(flows=args.flows)
            .backend(
                args.backend,
                domains=args.domains,
                workers=args.workers,
            )
        )
    if getattr(args, "fault_plan", None):
        from repro.faults import FaultPlan

        try:
            scenario.faults(FaultPlan.from_json_file(args.fault_plan))
        except (OSError, ValueError, FaultPlanError) as error:
            print(f"error: bad fault plan: {error}", file=sys.stderr)
            return 2
    if args.reference:
        scenario.config(reference=True)
    if args.no_obs:
        scenario.observe(False)
    resilient = args.resume or args.expect_digests or any(
        value is not None
        for value in (
            args.checkpoint_every, args.checkpoint, args.max_wall,
            args.max_rss, args.max_events, args.epoch_timeout, args.retries,
        )
    ) or args.no_degrade
    if resilient:
        scenario.resilience(
            checkpoint_every=args.checkpoint_every,
            checkpoint=args.checkpoint,
            max_wall=args.max_wall,
            max_rss_mb=args.max_rss,
            max_events=args.max_events,
            epoch_timeout=args.epoch_timeout,
            retries=args.retries,
            degrade=False if args.no_degrade else None,
        )
    try:
        report = scenario.run(until=args.seconds)
    except FaultPlanError as error:
        # Unknown links / lookahead-floor violations are detected when
        # the plan is installed against the built topology.
        print(f"error: bad fault plan: {error}", file=sys.stderr)
        return 2
    except RunAborted as abort:
        # A budget abort is an *orderly* exit: the partial report (with
        # run.outcome and the resilience counters) is still emitted.
        if abort.report is not None:
            _emit_report(args, abort.report)
        print(f"run aborted: {abort.reason}", file=sys.stderr)
        return 3
    except CheckpointDivergence as error:
        print(f"resume diverged from checkpoint: {error}", file=sys.stderr)
        return 4
    _emit_report(args, report)
    if args.expect_digests:
        expected = _load_digests(args.expect_digests)
        digest = report.metrics.get("run.digest")
        want = expected.get(scenario._seed)
        if want is None:
            print(
                f"error: no baseline digest for seed {scenario._seed} "
                f"in {args.expect_digests}",
                file=sys.stderr,
            )
            return 2
        if digest != want:
            print(
                f"seed {scenario._seed}: DIGEST DRIFT — got "
                f"{str(digest)[:16]}, baseline {want[:16]} "
                f"({args.expect_digests})"
            )
            return 1
        print(f"digest matches baseline for seed {scenario._seed}")
    return 0


def _cmd_import(args) -> int:
    from repro.topology.importers import (
        attach_clients,
        from_adjacency_list,
        from_bgp_paths,
    )

    with open(args.input) as handle:
        text = handle.read()
    if args.format == "caida":
        topology = from_adjacency_list(text)
    else:
        topology = from_bgp_paths(text)
    if args.clients > 0:
        attach_clients(
            topology, args.clients, RngRegistry(args.seed).stream("import"),
            edge_degree_at_most=3,
        )
    save_gml(topology, args.output)
    print(
        f"imported {topology.num_nodes} nodes / {topology.num_links} links "
        f"({len(topology.clients())} clients) -> {args.output}"
    )
    return 0


def _cmd_check(args) -> int:
    """Static analysis: determinism (DET/NED/ROB), cross-domain safety
    (DOM/EPO), and spec portability (PORT) families.

    Exit codes: 0 clean, 1 violations found, 2 usage error (no paths,
    unknown --select token, unreadable input). Warnings (unused
    suppressions, stale baseline entries) never affect the exit code.
    """
    import json
    import os

    from repro.check.model import (
        check_paths,
        format_violation,
        load_baseline,
        registered_rules,
        resolve_select,
    )

    if args.list_rules:
        for rule, (tag, description) in sorted(registered_rules().items()):
            print(f"{rule}  (# repro: allow-{tag})")
            print(f"    {description}")
        return 0
    if not args.paths:
        print("error: no paths given (or use --list-rules)", file=sys.stderr)
        return 2
    select = None
    if args.select:
        select = [
            token for part in args.select for token in part.split(",")
        ]
        try:
            resolve_select(select)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    baseline = []
    baseline_path = args.baseline
    if baseline_path is None and os.path.exists("check-baseline.toml"):
        baseline_path = "check-baseline.toml"
    if baseline_path and not args.no_baseline:
        baseline = load_baseline(baseline_path)
    try:
        report = check_paths(args.paths, select=select, baseline=baseline)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.format == "json":
        payload = {
            "format": "repro-check/1",
            "files": report.files,
            "clean": report.clean,
            "baselined": report.baselined,
            "violations": [
                {
                    "rule": v.rule, "path": v.path, "line": v.line,
                    "col": v.col, "message": v.message,
                }
                for v in report.violations
            ],
            "warnings": [
                {
                    "rule": w.rule, "path": w.path, "line": w.line,
                    "col": w.col, "message": w.message,
                }
                for w in report.warnings
            ],
            "errors": [
                {"path": path, "message": message}
                for path, message in report.errors
            ],
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0 if report.clean else 1

    for path, message in report.errors:
        print(f"{path}: parse error: {message}", file=sys.stderr)
    for violation in report.violations:
        print(format_violation(violation))
    for warning in report.warnings:
        print(f"warning: {format_violation(warning)}")
    suffix = (
        f" ({report.baselined} baselined suppression(s))"
        if report.baselined
        else ""
    )
    if not report.clean:
        count = len(report.violations) + len(report.errors)
        print(f"{count} violation(s){suffix}")
        return 1
    print(f"clean: no determinism violations{suffix}")
    return 0


def _cmd_sanitize(args) -> int:
    """Run a scenario twice per seed and diff the event digests."""
    from repro.api import Scenario
    from repro.check import sanitize_scenario, sanitize_scenario_multiprocess

    seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
    expected = _load_digests(args.expect_digests) if args.expect_digests else {}

    def make_scenario() -> Scenario:
        scenario = (
            Scenario.from_gml(args.input)
            .distill(args.mode, walk_in=args.walk_in)
            .assign(args.cores)
            .netperf(flows=args.flows)
            .observe(False)
            .backend(
                args.backend,
                domains=args.domains,
                workers=args.workers,
            )
        )
        if args.inject_fault:
            # Declarative fault: survives the spec round trip, so it
            # runs *inside* multiprocess workers too — divergence is
            # detected there, not masked by the parent.
            scenario.inject_fault(args.seconds)
        if getattr(args, "fault_plan", None):
            from repro.faults import FaultPlan

            scenario.faults(FaultPlan.from_json_file(args.fault_plan))
        return scenario

    failures = 0
    for seed in seeds:
        if args.backend == "multiprocess":
            # Vary the worker count across runs: identical digests then
            # prove invariance to how domains are dealt to workers, not
            # just run-to-run repeatability.
            counts = (args.workers, 1) if args.workers else (0, 2)
            result = sanitize_scenario_multiprocess(
                make_scenario,
                until=args.seconds,
                seed=seed,
                runs=args.runs,
                worker_counts=counts,
            )
        else:
            result = sanitize_scenario(
                make_scenario,
                until=args.seconds,
                seed=seed,
                runs=args.runs,
                freeze_packets=args.freeze_packets,
            )
        print(result.summary())
        if not result.identical:
            failures += 1
        elif seed in expected and result.digests[0] != expected[seed]:
            print(
                f"seed {seed}: DIGEST DRIFT — got {result.digests[0][:16]}, "
                f"baseline {expected[seed][:16]} ({args.expect_digests})"
            )
            failures += 1
    if failures:
        print(f"sanitize: {failures}/{len(seeds)} seed(s) failed")
        return 1
    suffix = f" (baseline: {args.expect_digests})" if expected else ""
    print(
        f"sanitize: all {len(seeds)} seed(s) digest-identical "
        f"over {args.runs} runs{suffix}"
    )
    return 0


def _cmd_bench(args) -> int:
    """Run the multicore scaling gate and write its manifest; raises
    if a multiprocess leg's digest diverges from the serial one."""
    from repro.bench import multicore_scaling, write_result

    result = multicore_scaling(profile=args.profile)
    path = write_result(result, args.out_dir)
    print(result.summary())
    print(f"wrote {path}")
    return 0


def _cmd_exp_run(args) -> int:
    """Execute a suite's run matrix (``exp resume`` = skip completed)."""
    import os

    from repro.exp import aggregate_suite, get_suite, run_sweep

    try:
        experiment = get_suite(args.suite)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    result = run_sweep(
        experiment,
        out_dir=args.out_dir,
        quick=args.quick,
        workers=args.workers,
        limit=args.limit,
        resume=args.resume,
        retries=args.retries,
        max_wall=args.max_wall,
        run_max_wall=args.run_max_wall,
        run_max_events=args.run_max_events,
        log=print,
    )
    print(result.summary())
    if result.complete:
        dataset = aggregate_suite(experiment, out_dir=args.out_dir)
        paths = dataset.save(os.path.join(args.out_dir, experiment.name))
        print(f"wrote {paths['csv']}")
        print(f"wrote {paths['json']}")
    if result.aborted:
        return 3
    return 1 if result.failed else 0


def _cmd_exp_report(args) -> int:
    """Aggregate a suite's completed reports into its dataset."""
    import os

    from repro.exp import aggregate_suite, get_suite

    try:
        experiment = get_suite(args.suite)
        dataset = aggregate_suite(experiment, out_dir=args.out_dir)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    paths = dataset.save(os.path.join(args.out_dir, experiment.name))
    print(dataset.summary())
    print(f"wrote {paths['csv']}")
    print(f"wrote {paths['json']}")
    if not dataset.complete:
        print(
            "warning: dataset has missing runs; "
            f"`repro-net exp resume {args.suite}` completes them",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_exp_ls(args) -> int:
    """List registered suites, or one suite's per-run progress."""
    import json
    import os

    from repro.exp import SUITES, load_manifest, report_path

    if not args.suite:
        for name in sorted(SUITES):
            experiment = SUITES[name]
            runs = len(experiment.matrix())
            print(f"{name:>8}: {runs:>3} runs  {experiment.description}")
        return 0
    try:
        manifest = load_manifest(args.out_dir, args.suite)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    done = 0
    for run_id in manifest["run_ids"]:
        path = report_path(args.out_dir, args.suite, run_id)
        status = "missing"
        try:
            with open(path) as handle:
                if json.load(handle).get("labels", {}).get("run_id") == run_id:
                    status = "ok"
                    done += 1
        except (OSError, ValueError):
            pass
        print(f"  {run_id}: {status}")
    total = len(manifest["run_ids"])
    variant = " (quick)" if manifest.get("quick") else ""
    print(f"{args.suite}{variant}: {done}/{total} complete")
    return 0 if done == total else 1


def _add_backend_flags(parser) -> None:
    """``--backend/--domains/--workers``: select the execution engine
    (shared by the run/sanitize subcommands)."""
    parser.add_argument(
        "--backend", choices=["serial", "multiprocess"],
        default="serial",
        help="execution backend (default: %(default)s)",
    )
    parser.add_argument(
        "--domains", type=int, default=None,
        help="event domains (default: 1 serial, one per core multiprocess)",
    )
    parser.add_argument(
        "--workers", type=int, default=None,
        help="multiprocess worker processes (default: one per domain)",
    )


def build_parser() -> argparse.ArgumentParser:
    """The repro-net argument parser (one subcommand per phase tool)."""
    parser = argparse.ArgumentParser(
        prog="repro-net", description="ModelNet topology toolbox"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    generate = sub.add_parser("generate", help="generate a topology as GML")
    generate.add_argument(
        "shape",
        choices=["ring", "star", "dumbbell", "waxman", "transit-stub"],
    )
    generate.add_argument("--routers", type=int, default=10)
    generate.add_argument("--vns", type=int, default=4)
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument("-o", "--output", required=True)
    generate.set_defaults(func=_cmd_generate)

    info = sub.add_parser("info", help="summarize a GML topology")
    info.add_argument("input")
    info.set_defaults(func=_cmd_info)

    annotate = sub.add_parser("annotate", help="assign link attributes by class")
    annotate.add_argument("input")
    annotate.add_argument("--seed", type=int, default=0)
    annotate.add_argument("--transit-bw", type=float, default=155.0, help="Mb/s")
    annotate.add_argument("--stub-bw", type=float, default=45.0, help="Mb/s")
    annotate.add_argument("--client-bw", type=float, default=2.0, help="Mb/s")
    annotate.add_argument("-o", "--output", required=True)
    annotate.set_defaults(func=_cmd_annotate)

    distill_cmd = sub.add_parser("distill", help="distill a topology")
    distill_cmd.add_argument("input")
    distill_cmd.add_argument("--mode", choices=sorted(_MODES), default="last-mile")
    distill_cmd.add_argument("--walk-in", type=int, default=1)
    distill_cmd.add_argument("--walk-out", type=int, default=0)
    distill_cmd.add_argument("-o", "--output", required=True)
    distill_cmd.set_defaults(func=_cmd_distill)

    route = sub.add_parser("route", help="shortest path between two nodes")
    route.add_argument("input")
    route.add_argument("--src", type=int, required=True)
    route.add_argument("--dst", type=int, required=True)
    route.set_defaults(func=_cmd_route)

    import_cmd = sub.add_parser(
        "import", help="convert CAIDA/BGP text formats to GML"
    )
    import_cmd.add_argument("input")
    import_cmd.add_argument(
        "--format", choices=["caida", "bgp"], default="caida"
    )
    import_cmd.add_argument(
        "--clients", type=int, default=0,
        help="clients to attach per edge AS (0 = none)",
    )
    import_cmd.add_argument("--seed", type=int, default=0)
    import_cmd.add_argument("-o", "--output", required=True)
    import_cmd.set_defaults(func=_cmd_import)

    run = sub.add_parser(
        "run",
        help="run a Scenario over a GML topology and emit its RunReport",
    )
    run.add_argument(
        "input", nargs="?", default=None,
        help="GML topology (optional with --resume)",
    )
    run.add_argument("--mode", choices=sorted(_MODES), default="hop-by-hop")
    run.add_argument("--walk-in", type=int, default=1)
    run.add_argument("--walk-out", type=int, default=0)
    run.add_argument("--cores", type=int, default=1)
    run.add_argument(
        "--hosts", type=int, default=None,
        help="edge hosts (default: 1, or locality binding on a "
        "partitioned run)",
    )
    run.add_argument(
        "--seconds", type=float, default=None,
        help="virtual seconds to run (default 3.0; --resume defaults "
        "to the checkpointed run's target)",
    )
    run.add_argument("--flows", type=int, default=4)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument(
        "--fault-plan", default=None, metavar="JSON",
        help="declarative fault timeline (FaultPlan JSON): link "
        "down/up, parameter timelines, node churn, partitions, "
        "recurring perturbations — applied identically on every "
        "backend",
    )
    _add_backend_flags(run)
    run.add_argument(
        "--reference", action="store_true",
        help="exact-time, infinite-hardware configuration",
    )
    run.add_argument(
        "--no-obs", action="store_true",
        help="disable hot-path observability (null registry)",
    )
    run.add_argument("--report", help="write the RunReport JSON here")
    run.add_argument("--csv", help="write the metrics as CSV here")
    run.add_argument(
        "--out-dir", default=None,
        help="directory for report.json/report.csv (explicit "
        "--report/--csv paths win)",
    )
    resilience = run.add_argument_group(
        "resilience",
        "supervised execution: checkpoints, budget guards, recovery "
        "(any of these flags enables the resilient run path)",
    )
    resilience.add_argument(
        "--checkpoint-every", type=float, default=None, metavar="VSEC",
        help="write a checkpoint every VSEC virtual seconds",
    )
    resilience.add_argument(
        "--checkpoint", default=None, metavar="PATH",
        help="checkpoint file path (default: <scenario>.ckpt)",
    )
    resilience.add_argument(
        "--resume", default=None, metavar="CKPT",
        help="resume from a checkpoint: replay to its barrier, verify "
        "digests, then continue",
    )
    resilience.add_argument(
        "--max-wall", type=float, default=None, metavar="SEC",
        help="abort after SEC wall-clock seconds (exit 3)",
    )
    resilience.add_argument(
        "--max-rss", type=float, default=None, metavar="MB",
        help="abort when resident memory exceeds MB megabytes (exit 3)",
    )
    resilience.add_argument(
        "--max-events", type=int, default=None,
        help="abort after this many dispatched events (exit 3)",
    )
    resilience.add_argument(
        "--epoch-timeout", type=float, default=None, metavar="SEC",
        help="declare a multiprocess worker hung after SEC seconds "
        "without an epoch reply (default 30)",
    )
    resilience.add_argument(
        "--retries", type=int, default=None,
        help="recovery attempts per worker before escalation (default 2)",
    )
    resilience.add_argument(
        "--no-degrade", action="store_true",
        help="on escalation, fail instead of degrading multiprocess "
        "to serial partitioned execution",
    )
    resilience.add_argument(
        "--expect-digests", metavar="JSON",
        help="JSON file mapping seed -> expected digest; compare "
        "run.digest and fail on drift",
    )
    run.set_defaults(func=_cmd_run)

    check = sub.add_parser(
        "check",
        help="static analysis: determinism (DET/NED/ROB), domain "
        "safety (DOM/EPO), spec portability (PORT)",
        description="Exit codes: 0 clean, 1 violations, 2 usage error.",
    )
    check.add_argument("paths", nargs="*", help="files or directories to lint")
    check.add_argument(
        "--select", action="append", metavar="RULES",
        help="comma-separated rule ids or family prefixes to run "
        "(e.g. DOM,PORT,EPO or DET001); default: all families",
    )
    check.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="output format (json prints a repro-check/1 report)",
    )
    check.add_argument(
        "--baseline",
        help="baseline TOML (default: ./check-baseline.toml when present)",
    )
    check.add_argument(
        "--no-baseline", action="store_true",
        help="report baselined violations too",
    )
    check.add_argument(
        "--list-rules", action="store_true",
        help="print the rule table and exit",
    )
    check.set_defaults(func=_cmd_check)

    sanitize = sub.add_parser(
        "sanitize",
        help="run a scenario twice per seed and diff the event digests",
    )
    sanitize.add_argument("input", help="GML topology to drive")
    sanitize.add_argument("--seeds", default="1,2,3", help="comma-separated")
    sanitize.add_argument("--runs", type=int, default=2, help="runs per seed")
    sanitize.add_argument("--mode", choices=sorted(_MODES), default="hop-by-hop")
    sanitize.add_argument("--walk-in", type=int, default=1)
    sanitize.add_argument("--cores", type=int, default=1)
    sanitize.add_argument("--flows", type=int, default=4)
    sanitize.add_argument("--seconds", type=float, default=1.0)
    _add_backend_flags(sanitize)
    sanitize.add_argument(
        "--expect-digests",
        help="JSON file mapping seed -> expected digest; fail on drift",
    )
    sanitize.add_argument(
        "--freeze-packets", action="store_true",
        help="raise on packet mutation after pipe enqueue",
    )
    sanitize.add_argument(
        "--inject-fault", action="store_true",
        help="add an unseeded-RNG traffic source (sanitizer self-test)",
    )
    sanitize.add_argument(
        "--fault-plan", default=None, metavar="JSON",
        help="declarative fault timeline (FaultPlan JSON) to apply "
        "during every sanitized run",
    )
    sanitize.set_defaults(func=_cmd_sanitize)

    bench = sub.add_parser(
        "bench",
        help="run the multicore scaling gate (serial vs 1 and 2 "
        "workers) and write BENCH_multicore_scaling.json",
    )
    bench.add_argument(
        "--profile", choices=["short", "full"], default="short",
        help="workload size (short for CI smoke, full for real numbers)",
    )
    bench.add_argument(
        "--out-dir", default=".",
        help="where to write the manifest (default: current directory)",
    )
    bench.set_defaults(func=_cmd_bench)

    exp = sub.add_parser(
        "exp",
        help="declarative experiment suites: run sweeps, aggregate "
        "paper-figure datasets",
    )
    exp_sub = exp.add_subparsers(dest="exp_command", required=True)

    def _exp_sweep_flags(parser) -> None:
        parser.add_argument("suite", help="suite name (see `exp ls`)")
        parser.add_argument(
            "--quick", action="store_true",
            help="CI-sized matrix and horizon",
        )
        parser.add_argument(
            "--out-dir", default="results",
            help="results root (default: %(default)s)",
        )
        parser.add_argument(
            "--workers", type=int, default=1,
            help="concurrent runs (<=1 = inline, deterministic order)",
        )
        parser.add_argument(
            "--limit", type=int, default=None,
            help="stop after N executed runs (deterministic interruption)",
        )
        parser.add_argument(
            "--retries", type=int, default=2,
            help="attempts per run before it is recorded as failed",
        )
        parser.add_argument(
            "--max-wall", type=float, default=None, metavar="SEC",
            help="sweep-level wall budget; exceeding it exits 3",
        )
        parser.add_argument(
            "--run-max-wall", type=float, default=None, metavar="SEC",
            help="per-run wall budget (supervised run path)",
        )
        parser.add_argument(
            "--run-max-events", type=int, default=None,
            help="per-run event budget (supervised run path)",
        )

    exp_run = exp_sub.add_parser(
        "run", help="execute a suite's run matrix"
    )
    _exp_sweep_flags(exp_run)
    exp_run.add_argument(
        "--resume", action="store_true",
        help="skip run ids whose reports already exist",
    )
    exp_run.set_defaults(func=_cmd_exp_run)

    exp_resume = exp_sub.add_parser(
        "resume", help="complete an interrupted sweep (skip finished runs)"
    )
    _exp_sweep_flags(exp_resume)
    exp_resume.set_defaults(func=_cmd_exp_run, resume=True)

    exp_report = exp_sub.add_parser(
        "report", help="fold a suite's reports into dataset.csv/json"
    )
    exp_report.add_argument("suite")
    exp_report.add_argument("--out-dir", default="results")
    exp_report.set_defaults(func=_cmd_exp_report)

    exp_ls = exp_sub.add_parser(
        "ls", help="list suites, or one suite's run statuses"
    )
    exp_ls.add_argument("suite", nargs="?", default=None)
    exp_ls.add_argument("--out-dir", default="results")
    exp_ls.set_defaults(func=_cmd_exp_ls)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
