"""The benchmark of record for the emulator in ``src/repro``.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs the workload as a fixed batch job again and again, each iteration
in a fresh interpreter, until ``--seconds`` of wall time have been
measured, and reports medians. With ``--trace 0`` the last stdout line
carries the end-to-end metrics; with ``--trace 1`` it carries the
per-layer metrics of traced iterations (plus the tracing overhead
against untraced ones). Every iteration's outcome fingerprint must
agree, must match ``expected.json`` for committed seeds, and on
``ring_mp2`` must equal the serial-partitioned engine's outcome.

The full result — every sample, provenance, checks — goes to
``perfbench/out/<workload>-seed<N>-trace<T>.json``; ``diff.py``
compares two traced results layer by layer.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Tuple

import reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
EXPECTED = HERE / "expected.json"

#: Wall limit for one iteration; the whole run must end within 180 s.
ITERATION_TIMEOUT_S = 90.0
MIN_ITERATIONS = 3
#: Share of a traced run's budget spent on the untraced baseline.
TRACE_BASELINE_SHARE = 0.35


def _git_commit() -> Optional[str]:
    """The checked-out commit, read from ``.git`` without running git
    (the benchmark's checkout need not be a repository)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def _source_digest() -> str:
    """Hash of every program source file, so results from a
    non-repository checkout still name the code they measured."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def provenance(workload, seed: int) -> Dict:
    return {
        "git_commit": _git_commit(),
        "source_digest": _source_digest(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "loadavg_start": list(os.getloadavg()),
        "seed": seed,
        "workload": workload.name,
        "horizon_s": workload.horizon_s,
        "params": workload.params,
    }


def run_child(
    args: List[str], timeout_s: float = ITERATION_TIMEOUT_S
) -> Tuple[Optional[Dict], str]:
    """Run one iteration in a fresh interpreter in its own process
    group; on timeout the whole group (workers included) is killed and
    reaped. Returns (result or None, error text)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("PYTHONSTARTUP", None)
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "iteration.py"), *args],
        cwd=str(ROOT),
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=timeout_s)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return None, f"iteration timed out after {timeout_s:.0f}s"
    finally:
        # Reap anything the iteration left behind in its group.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
    if proc.returncode != 0:
        return None, f"exit {proc.returncode}: {err.strip()[-2000:]}"
    try:
        return json.loads(out.strip().splitlines()[-1]), ""
    except (ValueError, IndexError):
        return None, f"unparsable iteration output: {out[-500:]!r}"


class Runner:
    """Runs iterations, counts attempts and failures, checks outcomes."""

    def __init__(self, workload: str, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.reference: Optional[Dict] = None

    def iterate(self, variant: str = "measured", traced: bool = False,
                spans: str = "") -> Optional[Dict]:
        args = ["--workload", self.workload, "--seed", str(self.seed), "--variant", variant]
        if traced:
            args.append("--traced")
        if spans:
            args += ["--spans", spans]
        self.attempted += 1
        result, error = run_child(args)
        if result is None:
            self.failed += 1
            self.errors.append(error)
            return None
        if variant == "measured" and not self._consistent(result):
            self.failed += 1
            return None
        return result

    def _consistent(self, result: Dict) -> bool:
        """Every iteration of one seed must reach the same outcome."""
        import fingerprint

        if self.reference is None:
            self.reference = result
            return True
        diff = fingerprint.mismatches(self.reference["fingerprint"], result["fingerprint"])
        if diff:
            self.errors.append("outcome differs between iterations: " + "; ".join(diff))
            return False
        return True

    def check_expected(self) -> Optional[bool]:
        """Compare against the committed fingerprint for this seed, if
        any. None when the seed has no committed value."""
        import fingerprint

        if self.reference is None or not EXPECTED.is_file():
            return None
        committed = json.loads(EXPECTED.read_text()).get(self.workload, {}).get(str(self.seed))
        if committed is None:
            return None
        diff = fingerprint.mismatches(committed, self.reference["fingerprint"])
        if diff:
            self.errors.append("committed fingerprint mismatch: " + "; ".join(diff))
            return False
        return True

    def check_serial(self, serial: Optional[Dict]) -> bool:
        """The multiprocess outcome must equal the serial-partitioned
        outcome of the same spec."""
        import fingerprint

        self.attempted += 1
        if serial is None or self.reference is None:
            self.failed += 1
            return False
        diff = fingerprint.mismatches(serial["fingerprint"], self.reference["fingerprint"])
        if diff:
            self.failed += 1
            self.errors.append("multiprocess != serial-partitioned: " + "; ".join(diff))
            return False
        return True


def scaled(sample: Dict) -> Dict[str, float]:
    """One iteration's end-to-end metrics, its times scaled to the
    nominal host speed (``reference.py``)."""
    scale = reference.scale(sample["reference_s"])
    return {
        "setup_s": sample["setup_s"] * scale,
        "delivered_pps": sample["delivered_pps"] / scale,
        "run_cpu_s": sample["run_cpu_s"] * scale,
        "total_s": sample["total_s"] * scale,
        "peak_rss_mb": sample["peak_rss_mb"],
        "delivery_error_p99_us": sample["delivery_error_p99_us"],
    }


def end_to_end(samples: List[Dict]) -> Dict[str, Dict]:
    """Median of each end-to-end metric over the iterations, with the
    sample count, the range, and the unscaled median."""
    from perlayer import END_TO_END

    rows = [scaled(s) for s in samples]
    out = {}
    for name, unit, _better in END_TO_END:
        values = [row[name] for row in rows]
        out[name] = {
            "value": statistics.median(values),
            "unit": unit,
            "n": len(values),
            "min": min(values),
            "max": max(values),
            "raw": statistics.median(s[name] for s in samples),
        }
    return out


def run_workload(workload, seed: int, seconds: float, trace: bool) -> Dict:
    """Measure one workload for ``seconds``; returns the result line
    and writes the full record under ``out/``."""
    from perlayer import PER_LAYER_UNITS, layer_metrics, layer_self, median_metrics

    OUT.mkdir(exist_ok=True)
    tag = f"{workload.name}-seed{seed}-trace{int(trace)}"
    record = {"provenance": provenance(workload, seed), "trace": int(trace)}
    runner = Runner(workload.name, seed)
    start = perf_counter()
    baseline_s = seconds * (TRACE_BASELINE_SHARE if trace else 1.0)
    untraced: List[Dict] = []
    while perf_counter() - start < baseline_s or len(untraced) < MIN_ITERATIONS:
        result = runner.iterate()
        if result is not None:
            untraced.append(result)
        if runner.failed >= MIN_ITERATIONS and not untraced:
            break
    traced: List[Dict] = []
    if trace:
        while perf_counter() - start < seconds or not traced:
            spans = str(OUT / f"{tag}-spans.jsonl") if not traced else ""
            result = runner.iterate(traced=True, spans=spans)
            if result is not None:
                traced.append(result)
            elif not traced and runner.failed >= MIN_ITERATIONS:
                break
    measured_s = perf_counter() - start

    # Outcome checks, outside the measured region.
    expected_ok = runner.check_expected()
    serial_ok = None
    worker = None
    if workload.multiprocess:
        serial = runner.iterate(variant="serial")
        serial_ok = runner.check_serial(serial)
        if trace and serial is not None:
            worker = runner.iterate(variant="serial", traced=True)
            if worker is not None:
                worker["untraced_total_s"] = serial["total_s"]

    correct = (
        bool(untraced)
        and runner.failed == 0
        and expected_ok is not False
        and serial_ok is not False
        and (not trace or bool(traced))
    )
    e2e = end_to_end(untraced) if untraced else {}
    record.update({
        "measured_s": measured_s,
        "loadavg_end": list(os.getloadavg()),
        "attempted": runner.attempted,
        "failed": runner.failed,
        "errors": runner.errors,
        "checks": {"expected_fingerprint": expected_ok, "serial_partitioned": serial_ok},
        "fingerprint": runner.reference["fingerprint"] if runner.reference else None,
        "end_to_end": e2e,
        "reference_s": statistics.median(
            s["reference_s"] for s in untraced + traced
        ) if untraced or traced else None,
        "samples": [{k: v for k, v in s.items() if k != "report"} for s in untraced],
        "report": untraced[0]["report"] if untraced else {},
    })

    metrics = {}
    if not trace:
        metrics = {name: {"value": m["value"], "unit": m["unit"]} for name, m in e2e.items()}
    elif traced:
        baseline_total = statistics.median(s["total_s"] for s in untraced) if untraced else 0.0
        values = median_metrics([layer_metrics(t, baseline_total, worker) for t in traced])
        metrics = {
            name: {"value": values[name], "unit": unit}
            for name, unit in PER_LAYER_UNITS.items()
        }
        record["per_layer"] = values
        record["layer_self_s"] = median_metrics([layer_self(t["spans"]) for t in traced])
        record["spans"] = traced[0]["spans"]
        if worker is not None:
            record["trace_worker_overhead"] = worker["traced_wall_s"] / worker["untraced_total_s"]
            record["worker_layer_self_s"] = layer_self(worker["spans"])
            record["worker_spans"] = worker["spans"]
            record["worker_events_by_layer"] = worker.get("events_by_layer", {})
        record["traced_samples"] = [
            {k: v for k, v in t.items() if k not in ("report", "spans", "durations")}
            for t in traced
        ]

    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    _summarize(workload.name, seed, e2e, runner, metrics if trace else None)
    return {
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="perfbench: the emulator's benchmark of record")
    parser.add_argument("--workload", required=True, help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: program source not found at {SRC / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload == "all":
        names = list(WORKLOADS)
    elif args.workload in WORKLOADS:
        names = [args.workload]
    else:
        print(f"perfbench: unknown workload {args.workload!r}; valid: all, "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    lines = [
        (name, run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace)))
        for name in names
    ]
    if len(lines) == 1:
        line = lines[0][1]
    else:
        # One line for every workload: metric names gain a prefix.
        line = {
            "correct": all(l["correct"] for _, l in lines),
            "attempted": sum(l["attempted"] for _, l in lines),
            "failed": sum(l["failed"] for _, l in lines),
            "metrics": {
                f"{name}.{metric}": value
                for name, l in lines
                for metric, value in l["metrics"].items()
            },
        }
    sys.stdout.write(json.dumps(line) + "\n")
    return 0


def _summarize(name: str, seed: int, e2e: Dict, runner: Runner, layer: Optional[Dict]) -> None:
    """Human-readable table on stderr; stdout's last line stays JSON."""
    print(f"perfbench {name} seed={seed}: attempted={runner.attempted} "
          f"failed_runs={runner.failed}", file=sys.stderr)
    for metric, m in e2e.items():
        print(f"  {metric:<24} {m['value']:>14.6g} {m['unit']:<10} "
              f"(median of {m['n']}, range {m['min']:.6g}..{m['max']:.6g}; "
              f"unscaled {m['raw']:.6g})", file=sys.stderr)
    for metric, m in (layer or {}).items():
        print(f"  {metric:<36} {m['value']:>14.6g} {m['unit']}", file=sys.stderr)
    for error in runner.errors:
        print(f"  error: {error}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
