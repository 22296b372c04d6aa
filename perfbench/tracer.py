"""Span tracing from outside the program, for the traced run only.

:class:`Tracer` wraps public entry points of the program's layers with
class-level (or module-level) wrappers, records one span per call
(name, start, end, parent span, run id) and aggregates online: call
count, inclusive time and self time per span name. A span's self time
is its duration minus the time its child spans cover, so the self times
of all spans add up to the wall time the root spans cover. A bounded
sample of full spans is kept for writing out at the end; everything
else is aggregated and then dropped.

Wrappers exist only between :meth:`Tracer.install` and
:meth:`Tracer.uninstall`; ``uninstall`` puts back the exact objects it
replaced. Untraced runs never import this module's probes.
"""

from __future__ import annotations

import functools
import importlib
import json
from collections import Counter
from time import perf_counter
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

from layers import layer_of


class Probe(NamedTuple):
    """One wrapped entry point: ``owner`` is ``"module"`` or
    ``"module:Class"``; the span is named ``layer.op``."""

    owner: str
    attr: str
    span: str
    #: Optional ``measure(args, result) -> int`` summed per span name
    #: (for example the bytes of a pickled frame).
    measure: Optional[Callable[[tuple, Any], int]] = None


def _frame_bytes_out(args, result) -> int:
    return len(result) if result is not None else 0


def _frame_bytes_in(args, result) -> int:
    return len(args[0]) if args and args[0] is not None else 0


#: Set-up and report assembly: every traced run installs these.
SETUP_PROBES = (
    Probe("repro.api:Scenario", "build", "phases.build"),
    Probe("repro.api:Scenario", "run", "engine.scenario_run"),
    Probe("repro.core.phases:ExperimentPipeline", "create", "phases.create"),
    Probe("repro.core.phases:ExperimentPipeline", "distill", "phases.distill"),
    Probe("repro.core.phases:ExperimentPipeline", "assign", "phases.assign"),
    Probe("repro.core.phases:ExperimentPipeline", "bind", "phases.bind"),
    Probe("repro.core.phases:ExperimentPipeline", "run", "phases.wire"),
    Probe("repro.core.emulator:Emulation", "install_fault_plan", "phases.faults"),
    Probe("repro.traffic", "build_traffic", "phases.traffic"),
    Probe("workloads", "start_streams", "phases.traffic"),
    Probe("repro.api", "build_report", "obs.report"),
)

#: The run path of an in-process run. Hot: these fire per packet.
RUN_PROBES = (
    Probe("repro.engine.domain:EventDomain", "run", "engine.run"),
    Probe("repro.engine.sync:PartitionedSimulator", "run", "engine.run"),
    Probe("repro.hardware.links:PhysicalLink", "send", "hardware.link_send"),
    Probe("repro.core.scheduler:PipeScheduler", "collect", "core.collect"),
    Probe("repro.core.pipe:Pipe", "arrival", "core.pipe_arrival"),
    Probe("repro.core.node:CoreNode", "ingress_packet", "core.ingress"),
    Probe("repro.core.node:CoreNode", "physical_ingress", "core.ingress"),
    Probe("repro.core.emulator:EdgeHost", "send_from_vn", "core.edge"),
    Probe("repro.core.emulator:EdgeHost", "receive_from_switch", "core.edge"),
    Probe("repro.net.tcp:TcpConnection", "handle_segment", "net.tcp"),
    Probe("repro.net.tcp:TcpConnection", "send", "net.tcp"),
    Probe("repro.net.sockets:NetStack", "transmit", "net.stack"),
    Probe("repro.net.sockets:NetStack", "deliver", "net.stack"),
    Probe("repro.core.emulator:Emulation", "lookup_pipes", "routing.lookup"),
    Probe("repro.routing.service:DynamicRouting", "route", "routing.route"),
    Probe("repro.routing.service:DynamicRouting", "invalidate", "routing.invalidate"),
    Probe("repro.routing.service", "dijkstra", "routing.dijkstra"),
    Probe("repro.core.emulator:Emulation", "set_link_up", "faults.apply"),
    Probe("repro.core.emulator:Emulation", "set_link_params", "faults.apply"),
)

#: The multiprocess parent's side of a run. Installed alone on a
#: multiprocess run: forked workers inherit whatever is installed, and
#: per-packet wrappers there would slow the barriers being measured.
PARENT_PROBES = (
    Probe("repro.engine.parallel", "run_multiprocess", "parallel.run"),
    Probe("repro.resilience.supervisor:WorkerSupervisor", "start", "parallel.spawn"),
    Probe("repro.resilience.supervisor:WorkerSupervisor", "run_epoch", "parallel.barrier"),
    Probe("repro.resilience.supervisor:WorkerSupervisor", "run_all", "parallel.barrier"),
    Probe("repro.resilience.supervisor:WorkerSupervisor", "finish", "parallel.finish"),
    Probe("repro.resilience.supervisor:WorkerSupervisor", "shutdown", "parallel.finish"),
    Probe("repro.engine.parallel", "pack_frame", "parallel.frame", _frame_bytes_out),
    Probe("repro.engine.parallel", "unpack_frame", "parallel.frame", _frame_bytes_in),
)

#: Span names whose individual durations are kept (for percentiles).
KEEP_DURATIONS = ("parallel.barrier",)


def _resolve(owner: str):
    module_name, _, class_name = owner.partition(":")
    target = importlib.import_module(module_name)
    return getattr(target, class_name) if class_name else target


class Tracer:
    """In-memory span recorder with online per-name aggregation."""

    def __init__(
        self,
        run_id: str = "",
        sample_limit: int = 4000,
        clock: Callable[[], float] = perf_counter,
    ) -> None:
        self.run_id = run_id
        self.sample_limit = sample_limit
        self.clock = clock
        self._stack: List[list] = []
        #: name -> [calls, inclusive_s, self_s, measure]
        self._acc: Dict[str, list] = {}
        self.durations: Dict[str, List[float]] = {n: [] for n in KEEP_DURATIONS}
        self.samples: List[dict] = []
        self._next_id = 0
        self._t0 = clock()
        #: (owner object, attr, original dict entry or None, had own)
        self._installed: List[Tuple[Any, str, Any, bool]] = []

    # -- recording --------------------------------------------------------

    def _accumulator(self, name: str) -> list:
        acc = self._acc.get(name)
        if acc is None:
            acc = self._acc[name] = [0, 0.0, 0.0, 0]
        return acc

    def _push(self, acc: list, name: str) -> list:
        stack = self._stack
        self._next_id += 1
        parent = stack[-1][3] if stack else None
        frame = [acc, 0.0, 0.0, self._next_id, parent, name]
        stack.append(frame)
        frame[1] = self.clock()
        return frame

    def _pop(self, frame: list) -> None:
        end = self.clock()
        stack = self._stack
        stack.pop()
        duration = end - frame[1]
        acc = frame[0]
        acc[0] += 1
        acc[1] += duration
        acc[2] += duration - frame[2]
        if stack:
            stack[-1][2] += duration
        name = frame[5]
        kept = self.durations.get(name)
        if kept is not None:
            kept.append(duration)
        if len(self.samples) < self.sample_limit:
            self.samples.append({
                "id": frame[3],
                "name": name,
                "start": frame[1] - self._t0,
                "end": end - self._t0,
                "parent": frame[4],
                "run": self.run_id,
            })

    def wrap(
        self,
        fn: Callable,
        name: str,
        measure: Optional[Callable[[tuple, Any], int]] = None,
    ) -> Callable:
        acc = self._accumulator(name)
        push = self._push
        pop = self._pop

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = push(acc, name)
            try:
                result = fn(*args, **kwargs)
            finally:
                pop(frame)
            if measure is not None:
                acc[3] += measure(args, result)
            return result

        traced.__wrapped_by_perfbench__ = True
        return traced

    # -- installation -------------------------------------------------------

    def install(self, probes) -> "Tracer":
        """Replace each probe's target with a tracing wrapper."""
        for probe in probes:
            owner = _resolve(probe.owner)
            had_own = probe.attr in vars(owner)
            original = vars(owner)[probe.attr] if had_own else None
            current = getattr(owner, probe.attr)
            if getattr(current, "__wrapped_by_perfbench__", False):
                raise RuntimeError(f"{probe.owner}.{probe.attr} is already traced")
            self._installed.append((owner, probe.attr, original, had_own))
            setattr(owner, probe.attr, self.wrap(current, probe.span, probe.measure))
        return self

    def uninstall(self) -> None:
        """Put back every replaced object, newest first."""
        while self._installed:
            owner, attr, original, had_own = self._installed.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # -- results -----------------------------------------------------------

    def stats(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, inclusive seconds, self seconds,
        summed measure."""
        return {
            name: {"calls": a[0], "total_s": a[1], "self_s": a[2], "measure": a[3]}
            for name, a in sorted(self._acc.items())
            if a[0]
        }

    def write_samples(self, path: str) -> None:
        with open(path, "w") as handle:
            for span in self.samples:
                handle.write(json.dumps(span) + "\n")


class DispatchCounter:
    """An ``on_dispatch`` hook counting dispatched events per layer of
    the callback's module. Counts are exact."""

    def __init__(self) -> None:
        self.by_layer: Counter = Counter()
        self._cache: Dict[Any, str] = {}

    def __call__(self, event, fn) -> None:
        target = getattr(fn, "__func__", fn)
        if isinstance(target, functools.partial):
            target = target.func
        target = getattr(target, "__wrapped__", target)
        # Keyed by code object: closures made per event share one.
        key = getattr(target, "__code__", target)
        layer = self._cache.get(key)
        if layer is None:
            module = getattr(target, "__module__", None) or ""
            layer = layer_of(module) or "unmapped"
            self._cache[key] = layer
        self.by_layer[layer] += 1
