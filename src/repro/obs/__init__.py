"""repro.obs — the unified observability layer.

The paper's evaluation is instrumentation end to end: per-packet
accuracy error (Figs. 8-10), core capacity in packets/sec (Fig. 4,
Table 1), and scheduler behaviour under load. This package gives that
measurement substrate one home:

* :class:`MetricsRegistry` — counters, gauges, and histograms with
  label support, consolidating the ad-hoc statistics scattered across
  the scheduler, pipes, cores, edge hosts, TCP stacks, and the
  :class:`~repro.core.monitor.EmulationMonitor`;
* :class:`NullRegistry` / :data:`NULL_REGISTRY` — the default for
  plain :class:`~repro.core.emulator.Emulation` runs: every operation
  is a no-op and the hot-path timing hooks stay uninstalled, so an
  unobserved run pays nothing;
* :func:`collect_metrics` — the pull pass that reads every subsystem's
  counters into canonical metric names at report time, through
  :class:`~repro.obs.report.RunStats`, which also merges a
  multiprocess run's per-worker parts;
* :class:`RunReport` — a run manifest (config, seed, topology summary,
  wall/virtual time, all metrics) serializable to JSON and CSV, the
  unit of comparison between runs and the artifact benchmarks emit.

Hot paths are instrumented with *guarded* timers (``pipe.enqueue_s``,
``sched.collect_s``, ``route.lookup_s``): a single attribute check per
event when disabled, a ``perf_counter`` pair when enabled. Coarser
phases use :meth:`MetricsRegistry.timed`.
"""

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    NULL_REGISTRY,
)
from repro.obs.report import RunReport, collect_metrics, build_report

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullRegistry",
    "NULL_REGISTRY",
    "RunReport",
    "collect_metrics",
    "build_report",
]
