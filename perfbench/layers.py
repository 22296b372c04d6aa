"""Which layer each module of ``src/repro`` belongs to.

The layer names are the ones the benchmark reports per-layer metrics
under. Every module is listed by its full dotted name, so a module added
to the program without a layer here fails ``tests/test_layers.py``
instead of having its callbacks silently counted nowhere.

``topology`` is input generation and ``offpath`` holds the packages
that are not on the run path (``check``, ``exp``, ``tools``,
``analysis`` and the older ``bench`` harness); neither is timed.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional

#: Layers on the run path, in report order.
RUN_LAYERS = (
    "engine",
    "hardware",
    "core",
    "net",
    "routing",
    "faults",
    "phases",
    "parallel",
    "apps",
    "obs",
)

#: Every layer name a module may map to.
LAYERS = RUN_LAYERS + ("topology", "offpath")

_MODULES_BY_LAYER: Dict[str, List[str]] = {
    "engine": [
        "repro.engine",
        "repro.engine.domain",
        "repro.engine.simulator",
        "repro.engine.process",
        "repro.engine.randomness",
    ],
    "hardware": [
        "repro.hardware",
        "repro.hardware.links",
        "repro.hardware.cpu",
        "repro.hardware.calibration",
    ],
    "core": [
        "repro.core",
        "repro.core.node",
        "repro.core.scheduler",
        "repro.core.pipe",
        "repro.core.kernel",
        "repro.core.pod",
        "repro.core.packet",
        "repro.core.queues",
        "repro.core.emulator",
        "repro.core.monitor",
        "repro.core.tracelog",
        "repro.core.crosstraffic",
        "repro.core.reassign",
    ],
    "net": [
        "repro.net",
        "repro.net.addr",
        "repro.net.conntrace",
        "repro.net.interpose",
        "repro.net.loopback",
        "repro.net.packet",
        "repro.net.sockets",
        "repro.net.tcp",
    ],
    "routing": [
        "repro.routing",
        "repro.routing.service",
        "repro.routing.shortest_path",
        "repro.routing.hierarchical",
        "repro.core.routing_emulation",
    ],
    "faults": [
        "repro.faults",
        "repro.core.faults",
    ],
    "phases": [
        "repro",
        "repro.api",
        "repro.core.phases",
        "repro.core.assign",
        "repro.core.distill",
        "repro.core.bind",
    ],
    "parallel": [
        "repro.engine.parallel",
        "repro.engine.sync",
        "repro.resilience",
        "repro.resilience.supervisor",
        "repro.resilience.checkpoint",
        "repro.resilience.policy",
    ],
    "apps": [
        "repro.apps",
        "repro.apps.aodv",
        "repro.apps.cdn",
        "repro.apps.cfs",
        "repro.apps.chord",
        "repro.apps.gnutella",
        "repro.apps.netperf",
        "repro.apps.overlay",
        "repro.apps.rondata",
        "repro.apps.rpc",
        "repro.apps.webserver",
        "repro.apps.wireless",
        "repro.traffic",
    ],
    "obs": [
        "repro.obs",
        "repro.obs.metrics",
        "repro.obs.report",
    ],
    "topology": [
        "repro.topology",
        "repro.topology.annotate",
        "repro.topology.generators",
        "repro.topology.gml",
        "repro.topology.graph",
        "repro.topology.importers",
        "repro.topology.transit_stub",
    ],
    "offpath": [
        "repro.analysis",
        "repro.analysis.stats",
        "repro.analysis.traces",
        "repro.bench",
        "repro.bench.harness",
        "repro.bench.scenarios",
        "repro.check",
        "repro.check.domains",
        "repro.check.faults",
        "repro.check.kernel",
        "repro.check.lint",
        "repro.check.model",
        "repro.check.portability",
        "repro.check.sanitize",
        "repro.exp",
        "repro.exp.aggregate",
        "repro.exp.runner",
        "repro.exp.suite",
        "repro.exp.suites",
        "repro.tools",
        "repro.tools.cli",
    ],
}

LAYER_OF_MODULE: Dict[str, str] = {
    module: layer
    for layer, modules in _MODULES_BY_LAYER.items()
    for module in modules
}


def layer_of(module: str) -> Optional[str]:
    """The layer of a dotted module name, or None if it is unmapped."""
    return LAYER_OF_MODULE.get(module)


def program_modules(src_root: str) -> List[str]:
    """Dotted names of every module under ``src_root/repro``."""
    names = []
    package_root = os.path.join(src_root, "repro")
    for directory, _dirs, files in os.walk(package_root):
        rel = os.path.relpath(directory, src_root)
        package = rel.replace(os.sep, ".")
        for filename in files:
            if not filename.endswith(".py"):
                continue
            if filename == "__init__.py":
                names.append(package)
            else:
                names.append(f"{package}.{filename[:-3]}")
    return sorted(names)


def unmapped_modules(src_root: str) -> List[str]:
    """Modules under ``src_root/repro`` that no layer claims."""
    return [m for m in program_modules(src_root) if m not in LAYER_OF_MODULE]
