"""Record the committed outcome fingerprints.

    python3 perfbench/expected.py --seeds 1,2,3 [--workloads a,b]

Runs one untraced iteration per workload and seed and writes their
fingerprints to ``perfbench/expected.json``, which ``run.py`` checks
every run of a committed seed against. Re-record only when a change is
meant to alter what the emulated network does.
"""

from __future__ import annotations

import argparse
import json
import sys

import run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1,2,3")
    parser.add_argument("--workloads", default="")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(run.SRC))
    from workloads import WORKLOADS

    names = args.workloads.split(",") if args.workloads else sorted(WORKLOADS)
    seeds = [int(s) for s in args.seeds.split(",")]
    recorded = json.loads(run.EXPECTED.read_text()) if run.EXPECTED.is_file() else {}
    for name in names:
        for seed in seeds:
            result, error = run.run_child(["--workload", name, "--seed", str(seed)])
            if result is None:
                print(f"{name} seed={seed}: {error}", file=sys.stderr)
                return 1
            recorded.setdefault(name, {})[str(seed)] = result["fingerprint"]
            print(f"{name} seed={seed}: {result['fingerprint']['counts']}", file=sys.stderr)
    run.EXPECTED.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
