"""The scaling gate's result record and its JSON manifest.

A :class:`BenchResult` is one ``multicore_scaling`` run, written as
``BENCH_<name>.json`` (by convention at the repo root) under the
``repro-bench/2`` schema:

``schema``
    Manifest format tag (``repro-bench/2``).
``name`` / ``profile`` / ``seed`` / ``params``
    What ran: scenario name, ``short`` or ``full`` profile, the fixed
    seed, and the scenario's resolved parameters.
``events``
    Events one leg dispatches (every leg runs the same event stream).
``phases``
    Wall-clock seconds of each leg's run phase (``serial_run_s``,
    ``multiprocess_w<N>_run_s``) and of the serial build (``build_s``).
``digest``
    The composed per-domain event-stream digest every leg reproduced.
``extras``
    ``speedup[w=<N>]`` (serial run phase over the N-worker one), the
    multiprocess epoch and message counts, and ``events_by_domain``.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field
from typing import Any, Dict

BENCH_SCHEMA = "repro-bench/2"


@dataclass
class BenchResult:
    """One scaling-gate run, reduced to what its manifest records."""

    name: str
    profile: str
    seed: int
    params: Dict[str, Any] = field(default_factory=dict)
    events: int = 0
    phases: Dict[str, float] = field(default_factory=dict)
    digest: str = ""
    extras: Dict[str, Any] = field(default_factory=dict)
    schema: str = BENCH_SCHEMA

    def to_json(self) -> str:
        payload = asdict(self)
        # Schema tag leads for human readers.
        ordered = {"schema": payload.pop("schema"), **payload}
        return json.dumps(ordered, indent=2) + "\n"

    def summary(self) -> str:
        speedups = ", ".join(
            f"{key} {value:.3f}"
            for key, value in self.extras.items()
            if key.startswith("speedup")
        )
        return f"{self.name} ({self.profile}): {speedups}"


def write_result(result: BenchResult, directory: str = ".") -> str:
    """Write ``BENCH_<name>.json`` into ``directory``; return its path."""
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"BENCH_{result.name}.json")
    with open(path, "w") as handle:
        handle.write(result.to_json())
    return path
