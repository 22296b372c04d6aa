"""Compare two traced benchmark results layer by layer.

    python3 perfbench/diff.py BEFORE AFTER

``BEFORE`` and ``AFTER`` are traced result files
(``perfbench/out/<workload>-seed<N>-trace1.json``) or directories of
them. For each workload present on both sides it prints every layer's
self time and every per-layer count and ratio side by side, with the
change, so a change that claims a saving can show which layer it
landed in.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Tuple

Key = Tuple[str, int]


def load(path: str) -> Dict[Key, Dict]:
    """Traced results under ``path``, keyed by (workload, seed)."""
    target = Path(path)
    files = sorted(target.glob("*-trace1.json")) if target.is_dir() else [target]
    out: Dict[Key, Dict] = {}
    for file in files:
        record = json.loads(file.read_text())
        if not record.get("trace") or "per_layer" not in record:
            continue
        prov = record["provenance"]
        out[(prov["workload"], prov["seed"])] = record
    return out


def pair(before: Dict[Key, Dict], after: Dict[Key, Dict]) -> List[Tuple[str, Dict, Dict]]:
    """Match results by (workload, seed); a workload with one result on
    each side is matched even when the seeds differ."""
    pairs = []
    for workload in sorted({k[0] for k in before} & {k[0] for k in after}):
        left = {k: v for k, v in before.items() if k[0] == workload}
        right = {k: v for k, v in after.items() if k[0] == workload}
        common = sorted(set(left) & set(right))
        if common:
            pairs.extend((f"{k[0]} seed={k[1]}", left[k], right[k]) for k in common)
        elif len(left) == 1 and len(right) == 1:
            (lk, lv), (rk, rv) = next(iter(left.items())), next(iter(right.items()))
            pairs.append((f"{workload} seed={lk[1]}->{rk[1]}", lv, rv))
    return pairs


def rows(record: Dict) -> Dict[str, float]:
    """Layer self times first, then every per-layer metric."""
    # Per-layer times are unscaled: compare the hosts' reference
    # loop speeds (reference.py) before reading a time delta.
    out = {"reference_s": record.get("reference_s")}
    out.update({f"self.{layer}": v for layer, v in record.get("layer_self_s", {}).items()})
    # Multiprocess workloads: the serial-partitioned run's layers.
    for layer, value in record.get("worker_layer_self_s", {}).items():
        out[f"worker_self.{layer}"] = value
    out.update(record["per_layer"])
    return out


def _fmt(value) -> str:
    return "-" if value is None else f"{value:.6g}"


def render(title: str, before: Dict, after: Dict) -> str:
    a, b = rows(before), rows(after)
    header = f"{'metric':<38} {'before':>14} {'after':>14} {'delta':>14} {'change':>9}"
    lines = [f"== {title}", header]
    for name in list(dict.fromkeys([*a, *b])):
        x, y = a.get(name), b.get(name)
        delta = y - x if x is not None and y is not None else None
        change = f"{delta / x:+.1%}" if delta is not None and x else ""
        if delta == 0:
            change = "="
        lines.append(f"{name:<38} {_fmt(x):>14} {_fmt(y):>14} {_fmt(delta):>14} {change:>9}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="per-layer diff of two traced results")
    parser.add_argument("before")
    parser.add_argument("after")
    args = parser.parse_args(argv)
    pairs = pair(load(args.before), load(args.after))
    if not pairs:
        print("perfbench diff: no workload has a traced result on both sides", file=sys.stderr)
        return 1
    print("\n\n".join(render(*p) for p in pairs))
    return 0


if __name__ == "__main__":
    sys.exit(main())
