"""The documented front door: ``Scenario``.

One fluent object drives the paper's whole pipeline —
Create → Distill → Assign → Bind → Run — and hands back a
:class:`~repro.obs.RunReport`:

>>> report = (
...     Scenario.from_gml("net.gml")
...     .distill("last-mile")
...     .assign(cores=2)
...     .bind(hosts=4)
...     .config(tick_s=1e-4)
...     .seed(7)
...     .run(until=10.0)
... )

Every stage is optional and defaults to the paper's defaults
(hop-by-hop distillation, one core, one host). Traffic is installed
with :meth:`Scenario.traffic` callbacks that receive the built
:class:`~repro.core.emulator.Emulation`; :meth:`Scenario.netperf` is
the canned bulk-TCP workload used throughout the evaluation.

The facade wraps — and does not replace — the explicit
:class:`~repro.core.phases.ExperimentPipeline` /
:class:`~repro.core.emulator.Emulation` construction, which keeps
working unchanged for callers that need custom assignments, bindings,
or routing protocols.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from repro.core.assign import Assignment
from repro.core.bind import Binding
from repro.core.distill import DistillationMode
from repro.core.emulator import Emulation, EmulationConfig
from repro.core.phases import ExperimentPipeline
from repro.engine.domain import run_digest
from repro.engine.simulator import Simulator
from repro.engine.sync import PartitionedSimulator
from repro.faults import FaultPlan, PLAN_OVERRIDE_KEYS
from repro.hardware.calibration import min_cross_core_latency
from repro.obs import MetricsRegistry, NULL_REGISTRY, RunReport, build_report
from repro.resilience import (
    BudgetExceeded,
    Checkpoint,
    CheckpointError,
    CheckpointWriter,
    ResilienceConfig,
    ResumeVerifier,
    RunAborted,
    RunBarrier,
    SupervisionEscalation,
    load_checkpoint,
    rng_stream_states,
)
from repro.topology.gml import load_gml, parse_gml
from repro.topology.graph import Topology

#: Distillation-mode spellings accepted anywhere a mode is a string.
DISTILL_MODES = {
    "hop-by-hop": DistillationMode.HOP_BY_HOP,
    "last-mile": DistillationMode.WALK_IN,
    "walk-in": DistillationMode.WALK_IN,
    "end-to-end": DistillationMode.END_TO_END,
}


def resolve_distill_mode(
    mode: Union[str, DistillationMode]
) -> DistillationMode:
    if isinstance(mode, DistillationMode):
        return mode
    try:
        return DISTILL_MODES[mode]
    except KeyError:
        raise ValueError(
            f"unknown distillation mode {mode!r}; "
            f"valid: {', '.join(sorted(DISTILL_MODES))}"
        ) from None


@dataclass(frozen=True)
class ScenarioSpec:
    """A picklable, declarative snapshot of a :class:`Scenario`.

    This is what crosses process boundaries for the multiprocess
    backend: every worker calls :meth:`Scenario.from_spec` and
    rebuilds the identical emulation (builds are deterministic — the
    ``repro.check`` contract). Only declarative traffic survives the
    round trip, which is why :meth:`Scenario.to_spec` rejects custom
    traffic callables.
    """

    name: str
    topology: Topology
    mode: DistillationMode
    walk_in: int
    walk_out: int
    cores: int
    assignment: Optional[Assignment]
    #: ``None`` = the Bind phase's default (one host, or locality
    #: binding on a partitioned run); see :meth:`Scenario.bind`.
    hosts: Optional[int]
    strategy: str
    binding: Optional[Binding]
    knobs: dict
    reference: bool
    seed: int
    #: ``(entry_name, ((param, value), ...))`` per registry workload
    #: (:meth:`Scenario.workload`, and the :meth:`Scenario.netperf` and
    #: :meth:`Scenario.inject_fault` shorthands), in registration
    #: order — :mod:`repro.traffic` entries, portable across process
    #: boundaries.
    traffic: Tuple[Tuple[str, Tuple[Tuple[str, Any], ...]], ...]
    #: Declarative fault timeline (:class:`repro.faults.FaultPlan`) —
    #: frozen and picklable, so scheduled topology mutation reaches
    #: multiprocess workers, checkpoints, and sweeps intact.
    faults: Optional[FaultPlan]

    def with_overrides(self, **overrides) -> "ScenarioSpec":
        """Derive a new spec with the named knobs replaced — the single
        sanctioned way to parameterize sweeps.

        Accepted names, resolved in this order: spec-level fields
        (``name``, ``seed``, ``mode`` — string or enum — ``cores``,
        ``hosts``, ``strategy``, ``walk_in``, ``walk_out``,
        ``reference``, ``topology``), then :class:`EmulationConfig`
        knobs (merged into ``knobs``), then parameters of any
        registered traffic entry this spec carries (applied to every
        entry that declares them). ``faults`` replaces
        the whole fault plan; the fault-intensity axes
        (:data:`repro.faults.PLAN_OVERRIDE_KEYS`) rewrite the plan's
        perturbation entries *and* any traffic entry sharing the name,
        so one sweep axis moves both. Unknown names raise
        :class:`ValueError` listing the valid ones, the same contract
        as :meth:`Scenario.config`.

        Overriding ``cores`` drops a precomputed assignment and
        ``hosts`` drops a precomputed binding — an explicit placement
        is only valid for the geometry it was computed for.
        """
        from repro.traffic import traffic_params

        spec_passthrough = {
            "name", "topology", "walk_in", "walk_out", "strategy",
            "reference", "seed",
        }
        config_fields = set(EmulationConfig.field_names())
        updates: Dict[str, Any] = {}
        knobs = dict(self.knobs)
        traffic = [(name, dict(params)) for name, params in self.traffic]
        faults = self.faults
        unknown = []
        for key, value in overrides.items():
            if key == "mode":
                updates["mode"] = resolve_distill_mode(value)
            elif key == "cores":
                updates["cores"] = int(value)
                updates["assignment"] = None
            elif key == "hosts":
                updates["hosts"] = None if value is None else int(value)
                updates["binding"] = None
            elif key == "faults":
                faults = (
                    value
                    if (value is None or isinstance(value, FaultPlan))
                    else FaultPlan.from_jsonable(value)
                )
            elif key in spec_passthrough:
                updates[key] = value
            else:
                applied = False
                if key in config_fields:
                    knobs[key] = value
                    applied = True
                for name, params in traffic:
                    if key in traffic_params(name):
                        params[key] = value
                        applied = True
                if faults is not None and key in PLAN_OVERRIDE_KEYS:
                    faults = faults.with_overrides(**{key: value})
                    applied = True
                if not applied:
                    unknown.append(key)
        if unknown:
            valid = (
                spec_passthrough
                | {"mode", "cores", "hosts", "faults"}
                | config_fields
            )
            for name, _ in traffic:
                valid |= set(traffic_params(name))
            if faults is not None:
                valid |= set(PLAN_OVERRIDE_KEYS)
            raise ValueError(
                f"unknown override knob(s) {sorted(unknown)}; valid: "
                f"{', '.join(sorted(valid))}"
            )
        return replace(
            self,
            knobs=knobs,
            traffic=tuple(
                (name, tuple(sorted(params.items())))
                for name, params in traffic
            ),
            faults=faults,
            **updates,
        )


class Scenario:
    """A declarative experiment: topology in, :class:`RunReport` out."""

    def __init__(self, topology: Topology, name: str = ""):
        self.name = name or topology.name or "scenario"
        self._topology = topology
        self._mode: DistillationMode = DistillationMode.HOP_BY_HOP
        self._walk_in = 1
        self._walk_out = 0
        self._cores = 1
        self._assignment: Optional[Assignment] = None
        self._hosts: Optional[int] = None
        self._strategy = "contiguous"
        self._binding: Optional[Binding] = None
        self._knobs: dict = {}
        self._reference = False
        self._seed = 0
        # Observability wiring is parent-side runtime state: a worker
        # rebuilt from the spec attaches its own registry, so neither
        # field belongs in the ScenarioSpec round-trip.
        self._registry: Optional[MetricsRegistry] = None  # repro: allow-spec-drift
        self._observe = True  # repro: allow-spec-drift
        self._traffic: List[Callable[[Emulation], Any]] = []
        self._fault_plan: Optional[FaultPlan] = None
        #: Resilience knobs (None = plain execution) and an optional
        #: checkpoint to resume from. Parent-side only: neither enters
        #: the spec, so they never change what workers compute.
        self._resilience = None  # repro: allow-spec-drift
        self._resume = None  # repro: allow-spec-drift
        # Build products.
        self.sim: Optional[Union[Simulator, PartitionedSimulator]] = None
        self.pipeline: Optional[ExperimentPipeline] = None
        self.emulation: Optional[Emulation] = None
        self.report: Optional[RunReport] = None
        #: Whatever each traffic setup returned, in registration
        #: order; registry workload handles expose ``metrics()``.
        self.traffic_handles: List[Any] = []
        #: Filled by a multiprocess run: epochs, digests, worker count.
        self.mp_result = None

    # -- Create -----------------------------------------------------------

    @classmethod
    def from_topology(cls, topology: Topology, name: str = "") -> "Scenario":
        """Start from an in-memory topology (any generator/importer)."""
        return cls(topology, name=name)

    @classmethod
    def from_gml(cls, path: str, name: str = "") -> "Scenario":
        """Start from a GML file (the Create phase's lingua franca)."""
        return cls(load_gml(path), name=name)

    @classmethod
    def from_gml_text(cls, text: str, name: str = "") -> "Scenario":
        """Start from GML source text."""
        return cls(parse_gml(text), name=name)

    # -- Distill / Assign / Bind -----------------------------------------

    def distill(
        self,
        mode: Union[str, DistillationMode] = "hop-by-hop",
        walk_in: int = 1,
        walk_out: int = 0,
    ) -> "Scenario":
        """Choose the distillation mode (Sec. 4.1), by name or enum."""
        self._check_mutable()
        self._mode = resolve_distill_mode(mode)
        self._walk_in = walk_in
        self._walk_out = walk_out
        return self

    def assign(
        self,
        cores: int = 1,
        assignment: Optional[Assignment] = None,
    ) -> "Scenario":
        """Partition pipes across ``cores`` (greedy k-clusters), or
        install a precomputed :class:`Assignment`."""
        self._check_mutable()
        if assignment is None and cores < 1:
            raise ValueError(f"cores must be >= 1, got {cores}")
        self._cores = assignment.num_cores if assignment else cores
        self._assignment = assignment
        return self

    def bind(
        self,
        hosts: Optional[int] = None,
        strategy: str = "contiguous",
        binding: Optional[Binding] = None,
    ) -> "Scenario":
        """Bind VNs onto ``hosts`` edge machines. Without ``hosts``
        the Bind phase picks: one host on a serial run, locality
        binding (one host per client node, on the core owning its
        access link) on a partitioned one. An explicit ``hosts``,
        1 included, is always honoured."""
        self._check_mutable()
        if binding is None and hosts is not None and hosts < 1:
            raise ValueError(f"hosts must be >= 1, got {hosts}")
        self._hosts = hosts
        self._strategy = strategy
        self._binding = binding
        return self

    # -- Run configuration -------------------------------------------------

    def config(self, **knobs) -> "Scenario":
        """Set :class:`EmulationConfig` knobs by name; unknown names
        raise :class:`ValueError` listing the valid ones.

        ``reference=True`` selects the exact-time, infinite-hardware
        configuration (:meth:`EmulationConfig.reference`) before
        applying the remaining knobs. Placement and seed are not
        knobs: set them with :meth:`assign`, :meth:`bind` and
        :meth:`seed`.
        """
        self._check_mutable()
        knobs = dict(knobs)
        if knobs.pop("reference", False):
            self._reference = True
        valid = set(EmulationConfig.field_names())
        unknown = set(knobs) - valid
        if unknown:
            raise ValueError(
                f"unknown config knob(s) {sorted(unknown)}; valid: "
                f"{', '.join(sorted(valid | {'reference'}))}"
            )
        self._knobs.update(knobs)
        return self

    def seed(self, seed: int) -> "Scenario":
        """Seed for assignment, binding, and pipe-loss randomness."""
        self._check_mutable()
        self._seed = seed
        return self

    def backend(
        self,
        name: str = "serial",
        domains: Optional[int] = None,
        workers: Optional[int] = None,
    ) -> "Scenario":
        """Choose the execution backend.

        ``"serial"`` (the default) runs everything in-process: one
        event domain unless ``domains`` says otherwise, in which case
        the epoch-synchronized partitioned engine runs serially.
        ``"multiprocess"`` runs one event domain per core (or
        ``domains``) across ``workers`` processes (0 = one per
        domain). Digests are identical across worker counts.
        """
        knobs: dict = {"backend": name}
        if domains is not None:
            knobs["num_domains"] = domains
        if workers is not None:
            knobs["workers"] = workers
        return self.config(**knobs)

    def observe(
        self,
        enabled: bool = True,
        registry: Optional[MetricsRegistry] = None,
    ) -> "Scenario":
        """Control observability. Scenarios observe by default (they
        exist to produce reports); ``observe(False)`` runs with the
        zero-overhead null registry and the report carries only
        pull-collected statistics."""
        self._check_mutable()
        self._observe = enabled
        self._registry = registry
        return self

    def traffic(self, setup: Callable[[Emulation], Any]) -> "Scenario":
        """Register a traffic generator: ``setup(emulation)`` is
        called once the emulation is built, before the clock runs."""
        self._check_mutable()
        self._traffic.append(setup)
        return self

    def netperf(self, flows: int = 4, seed: Optional[int] = None) -> "Scenario":
        """Canned workload: ``flows`` random-pair bulk TCP streams
        (the paper's netperf senders) — the registry's ``netperf``
        entry."""
        return self.workload("netperf", flows=flows, seed=seed)

    def workload(self, name: str, **params) -> "Scenario":
        """Install a named workload from the :mod:`repro.traffic`
        registry (``netperf``, ``udp-cbr``, ``cfs``, ``acdc``).

        Registry workloads are declarative: they survive
        :meth:`to_spec`/:meth:`from_spec`, so sweeps and multiprocess
        workers can carry them as plain ``(name, params)`` data.
        Unknown entry or parameter names raise :class:`ValueError`.
        """
        from repro.traffic import make_setup

        self._check_mutable()
        return self.traffic(make_setup(name, params))

    def variants(self, **axes) -> List[ScenarioSpec]:
        """Expand this scenario into the cartesian product of the
        given axes, one :class:`ScenarioSpec` per point.

        Each axis is ``knob=[value, ...]`` with any name
        :meth:`ScenarioSpec.with_overrides` accepts. Axes expand in
        keyword order with the last axis varying fastest, so the list
        order is deterministic:

        >>> specs = scenario.variants(seed=[1, 2], cores=[1, 4])
        >>> [(s.seed, s.cores) for s in specs]
        [(1, 1), (1, 4), (2, 1), (2, 4)]
        """
        base = self.to_spec()
        names = list(axes)
        return [
            base.with_overrides(**dict(zip(names, point)))
            for point in itertools.product(*(axes[n] for n in names))
        ]

    def faults(self, plan) -> "Scenario":
        """Install a declarative fault timeline
        (:class:`repro.faults.FaultPlan`, or its JSON-able mapping
        form). The plan travels inside the :class:`ScenarioSpec`, is
        applied by the single sanctioned applier on the owning
        kernel, and produces digest-identical event streams across
        backends and worker counts. Validated against the
        topology — and against the partitioned lookahead floor — at
        :meth:`build`."""
        self._check_mutable()
        if plan is not None and not isinstance(plan, FaultPlan):
            plan = FaultPlan.from_jsonable(plan)
        self._fault_plan = plan
        return self

    def inject_fault(self, seconds: float = 0.01) -> "Scenario":
        """Install a *deliberately nondeterministic* workload for
        ``seconds`` of virtual time (the sanitizer's positive
        control): the registry's ``nondeterminism`` entry, so it
        survives the spec round trip and runs inside multiprocess
        workers — divergence must be detected there, not masked by
        the parent."""
        return self.workload("nondeterminism", seconds=float(seconds))

    def resilience(
        self,
        checkpoint_every: Optional[float] = None,
        checkpoint: Optional[str] = None,
        max_wall: Optional[float] = None,
        max_rss_mb: Optional[float] = None,
        max_events: Optional[int] = None,
        epoch_timeout: Optional[float] = None,
        heartbeat_interval: Optional[float] = None,
        retries: Optional[int] = None,
        degrade: Optional[bool] = None,
        chaos_kill: Optional[Tuple[int, int]] = None,
        chaos_signal: Optional[int] = None,
    ) -> "Scenario":
        """Enable supervised execution (see :mod:`repro.resilience`).

        Any non-``None`` argument updates the scenario's
        :class:`~repro.resilience.policy.ResilienceConfig`; calling
        with no arguments enables the resilient run path with
        defaults. These knobs are parent-side only — they never enter
        the spec, so digests are unaffected. Unlike pipeline stages
        they may be set after :meth:`build` (they configure the run,
        not the object graph).
        """
        cfg = self._resilience or ResilienceConfig()
        if checkpoint_every is not None:
            cfg.checkpoint_every_s = float(checkpoint_every)
        if checkpoint is not None:
            cfg.checkpoint_path = checkpoint
        if max_wall is not None:
            cfg.max_wall_s = float(max_wall)
        if max_rss_mb is not None:
            cfg.max_rss_mb = float(max_rss_mb)
        if max_events is not None:
            cfg.max_events = int(max_events)
        if epoch_timeout is not None:
            cfg.epoch_timeout_s = float(epoch_timeout)
        if heartbeat_interval is not None:
            cfg.heartbeat_interval_s = float(heartbeat_interval)
        if retries is not None:
            cfg.max_attempts = int(retries)
        if degrade is not None:
            cfg.degrade = bool(degrade)
        if chaos_kill is not None:
            cfg.chaos_kill = chaos_kill
        if chaos_signal is not None:
            cfg.chaos_signal = chaos_signal
        self._resilience = cfg
        return self

    @classmethod
    def from_checkpoint(cls, checkpoint) -> "Scenario":
        """Reconstruct a scenario from a checkpoint (path or
        :class:`~repro.resilience.checkpoint.Checkpoint`) for
        ``--resume``: the run replays deterministically from t=0,
        *verifies* digests/event counts/RNG states at the checkpoint
        barrier, then continues to ``until``. Like every
        :meth:`from_spec` rebuild it comes back unobserved; call
        :meth:`observe` for the report an observed run gives
        (``repro-net run --resume`` does, unless ``--no-obs``)."""
        if not isinstance(checkpoint, Checkpoint):
            checkpoint = load_checkpoint(checkpoint)
        scenario = cls.from_spec(checkpoint.spec)
        scenario._resume = checkpoint
        return scenario

    # -- Build / Run --------------------------------------------------------

    def _check_mutable(self) -> None:
        if self.emulation is not None:
            raise RuntimeError("scenario already built; stages are frozen")

    @property
    def registry(self) -> MetricsRegistry:
        """The live registry (or the shared null one when disabled)."""
        if not self._observe:
            return NULL_REGISTRY
        if self._registry is None:
            self._registry = MetricsRegistry()
        return self._registry

    def build(self) -> Emulation:
        """Walk the pipeline and construct the emulation (idempotent);
        traffic callbacks fire here."""
        if self.emulation is not None:
            return self.emulation
        registry = self.registry
        config = (
            EmulationConfig.reference(**self._knobs)
            if self._reference
            else EmulationConfig(**self._knobs)
        )
        num_domains = config.resolved_domains(self._cores)
        if num_domains > 1:
            self.sim = PartitionedSimulator(
                num_domains,
                lookahead=min_cross_core_latency(config.core_spec),
            )
        else:
            self.sim = Simulator()
        with registry.timed("phase.build_s"):
            pipeline = ExperimentPipeline(self.sim, seed=self._seed)
            pipeline.create(self._topology)
            pipeline.distill(
                self._mode, walk_in=self._walk_in, walk_out=self._walk_out
            )
            pipeline.assign(self._cores, assignment=self._assignment)
            pipeline.bind(self._hosts, self._strategy, binding=self._binding)
            self.pipeline = pipeline
            self.emulation = pipeline.run(
                config, registry=registry if registry.enabled else None
            )
        registry.gauge("distill.pipes").set(self.pipeline.distillation.total_pipes)
        registry.gauge("distill.preserved_links").set(
            self.pipeline.distillation.preserved_links
        )
        # The fault plan arms before traffic setups so workload
        # handles (e.g. acdc) can read emulation.fault_applier.
        if self._fault_plan is not None and self._fault_plan:
            self.emulation.install_fault_plan(self._fault_plan)
        self.traffic_handles = [
            setup(self.emulation) for setup in self._traffic
        ]
        return self.emulation

    def run(self, until: Optional[float] = None) -> RunReport:
        """Build (if needed), run the clock to ``until`` virtual
        seconds, and return the :class:`RunReport`.

        ``until`` defaults to the original run's target when resuming
        from a checkpoint. With resilience configured (or a resume
        pending) the run is supervised: one
        :class:`~repro.resilience.RunBarrier` checks budgets, verifies
        the resume and writes checkpoints at every barrier, a
        multiprocess run degrades to local execution when a worker is
        unrecoverable, and a budget abort raises
        :class:`~repro.resilience.policy.RunAborted` carrying the
        partial report.
        """
        if until is None:
            if self._resume is None:
                raise ValueError(
                    "until is required (only checkpoint resumes have "
                    "an implied target)"
                )
            until = self._resume.until
        if until <= 0:
            raise ValueError(f"until must be > 0, got {until}")
        emulation = self.build()
        registry = self.registry
        resume = self._resume
        res = self._resilience or ResilienceConfig()
        barrier = None
        if self._resilience is not None or resume is not None:
            writer = None
            if res.checkpoint_every_s:
                writer = CheckpointWriter(
                    res.checkpoint_path or f"{self.name}.ckpt",
                    res.checkpoint_every_s,
                    self.to_spec(),
                    until,
                    self._seed,
                )
            barrier = RunBarrier(
                res.budget(),
                writer,
                ResumeVerifier(resume) if resume is not None else None,
            )
            for domain in self._domains():
                domain.enable_digest()
        result = abort = degraded = None
        counters: dict = {}
        t0 = perf_counter()
        try:
            with registry.timed("phase.run_s"):
                if (
                    emulation.config.backend == "multiprocess"
                    and emulation.num_domains > 1
                ):
                    from repro.engine.parallel import run_multiprocess

                    try:
                        result = run_multiprocess(
                            self,
                            until,
                            workers=emulation.config.workers,
                            policy=res.retry_policy(self._seed),
                            epoch_timeout_s=res.epoch_timeout_s,
                            heartbeat_interval_s=res.heartbeat_interval_s,
                            # Even an idle barrier makes the run
                            # observed: the workers stop at every epoch
                            # barrier until the hook has seen it.
                            barrier=barrier,
                            chaos_kill=res.chaos_kill,
                            chaos_signal=res.chaos_signal,
                        )
                    except SupervisionEscalation as escalation:
                        if barrier is None or not res.degrade:
                            raise
                        # The parent's never-run emulation executes
                        # locally: same domains, same digests.
                        degraded = (
                            f"worker {escalation.worker} unrecoverable "
                            f"after {escalation.attempts} attempt(s)"
                        )
                        counters = getattr(escalation, "counters", counters)
                        self._run_local(until, barrier)
                else:
                    self._run_local(until, barrier)
        except BudgetExceeded as exc:
            abort = exc
        wall = perf_counter() - t0
        report = build_report(
            emulation,
            registry=registry if registry.enabled else None,
            name=self.name,
            wall_time_s=wall,
            stats=result.stats if result is not None else None,
        )
        self.report = report
        if result is None:
            # Workload-level results (``handle.metrics()``) are derived
            # values, not additive counters: only a run whose clock ran
            # in *this* process reports them.
            for handle in self.traffic_handles:
                metrics = getattr(handle, "metrics", None)
                if callable(metrics):
                    for key, value in metrics().items():
                        report.metrics[f"traffic.{key}"] = value
        else:
            self.mp_result = result
            abort = result.budget_error
        if barrier is None:
            return report
        if result is None:
            digests, counts = self._local_digests()
        else:
            digests, counts = result.domain_digests, result.domain_digest_events
        # Supervised: outcome, identity and every resilience counter —
        # present (zero-valued if idle), so partial reports are
        # machine-checkable.
        metrics = report.metrics
        if abort is not None:
            metrics["run.outcome"] = f"aborted{{reason={abort.reason}}}"
        elif degraded is not None:
            metrics["run.outcome"] = f"degraded{{reason={degraded}}}"
        else:
            metrics["run.outcome"] = "completed"
        metrics["run.digest"] = run_digest(digests)
        metrics["run.events"] = sum(counts.values())
        for name in ("heartbeats_missed", "workers_restarted", "retries"):
            metrics[f"resilience.{name}"] = (
                getattr(result, name)
                if result is not None
                else counters.get(name, 0)
            )
        metrics["resilience.checkpoints_written"] = (
            barrier.writer.written if barrier.writer is not None else 0
        )
        metrics["resilience.downgrades"] = 1 if degraded is not None else 0
        if resume is not None:
            metrics["run.resumed_from_t"] = resume.barrier_time
        if abort is not None:
            raise RunAborted(abort.reason, report=report, detail=str(abort))
        if barrier.verifier is not None and not barrier.verifier.verified:
            raise CheckpointError(
                "resume completed without crossing the checkpoint "
                f"barrier (t={resume.barrier_time:g}); the replayed "
                "prefix was never verified — is `until` shorter than "
                "the checkpoint?"
            )
        return report

    def _domains(self) -> list:
        """The event domains of the built simulator (one when
        unpartitioned)."""
        return getattr(self.sim, "domains", None) or [self.sim]

    def _local_digests(self) -> Tuple[Dict[int, Any], Dict[int, int]]:
        """``(domain_digests, domain_counts)`` of the in-process
        domains (digests are None unless armed)."""
        domains = self._domains()
        return (
            {d.domain_id: d.digest_hexdigest() for d in domains},
            {d.domain_id: d.events_dispatched for d in domains},
        )

    def _run_local(self, until: float, barrier) -> None:
        """Run the in-process engine to ``until``, calling ``barrier``
        (a :class:`~repro.resilience.RunBarrier`, or None) at every
        barrier it observes.

        A partitioned simulator reports its epoch barriers through
        ``sim.on_epoch``. One domain is a 1-domain barrier sequence
        chunked at virtual-time marks, which is stream-identical to a
        single run (the heap and seq counter are untouched). When
        nothing observes the barriers this is one ``sim.run(until)``.
        """
        sim = self.sim
        if barrier is None or not barrier.observing:
            sim.run(until=until)
            return
        emulation = self.emulation
        domains = self._domains()

        def state() -> dict:
            applier = emulation.fault_applier
            faulted = applier is not None
            return {
                "rng_states": rng_stream_states(emulation.rng),
                "snapshots": [domain.snapshot() for domain in domains],
                "fault_cursor": applier.applied if faulted else None,
                "link_state": applier.link_state() if faulted else None,
            }

        def at_barrier(epoch: Optional[int], horizon: float) -> None:
            barrier(epoch, horizon, *self._local_digests(), state=state)

        if len(domains) > 1:
            sim.on_epoch = at_barrier
            try:
                sim.run(until=until)
            finally:
                sim.on_epoch = None
            return
        # Chunk marks: the checkpoint cadence (else until/16), anchored
        # at t=0 like the writer's, plus the resume barrier.
        writer, verifier = barrier.writer, barrier.verifier
        step = writer.every_s if writer is not None else until / 16.0
        mark = step
        while sim.now < until:
            target = min(mark, until)
            if verifier is not None and not verifier.verified:
                resume_at = verifier.checkpoint.barrier_time
                if sim.now < resume_at < target:
                    target = resume_at
            sim.run(until=target)
            at_barrier(None, sim.now)
            while mark <= sim.now:
                mark += step

    # -- spec round trip (multiprocess workers) ---------------------------

    def to_spec(self) -> ScenarioSpec:
        """Snapshot this scenario as picklable plain data.

        Raises :class:`ValueError` if any registered traffic callback
        is not declarative (i.e. not a :meth:`workload` entry) —
        closures cannot be shipped to worker processes reproducibly.
        """
        traffic: List[Tuple[str, Tuple[Tuple[str, Any], ...]]] = []
        for setup in self._traffic:
            entry = getattr(setup, "_traffic_entry", None)
            if entry is None:
                raise ValueError(
                    "the multiprocess backend supports declarative "
                    "traffic only (Scenario.netperf / "
                    "Scenario.workload); custom traffic callables "
                    "cannot cross process boundaries"
                )
            traffic.append(entry)
        return ScenarioSpec(
            name=self.name,
            topology=self._topology,
            mode=self._mode,
            walk_in=self._walk_in,
            walk_out=self._walk_out,
            cores=self._cores,
            assignment=self._assignment,
            hosts=self._hosts,
            strategy=self._strategy,
            binding=self._binding,
            knobs=dict(self._knobs),
            reference=self._reference,
            seed=self._seed,
            traffic=tuple(traffic),
            faults=self._fault_plan,
        )

    @classmethod
    def from_spec(cls, spec: ScenarioSpec) -> "Scenario":
        """Reconstruct a fresh, unbuilt scenario from a spec, with
        observability off (a multiprocess worker turns it on when its
        parent's run observes)."""
        scenario = cls(spec.topology, name=spec.name)
        scenario._mode = spec.mode
        scenario._walk_in = spec.walk_in
        scenario._walk_out = spec.walk_out
        scenario._cores = spec.cores
        scenario._assignment = spec.assignment
        scenario._hosts = spec.hosts
        scenario._strategy = spec.strategy
        scenario._binding = spec.binding
        scenario._knobs = dict(spec.knobs)
        scenario._reference = spec.reference
        scenario._seed = spec.seed
        scenario._observe = False
        for entry_name, entry_params in spec.traffic:
            scenario.workload(entry_name, **dict(entry_params))
        if spec.faults is not None:
            scenario.faults(spec.faults)
        return scenario

    def __repr__(self) -> str:
        built = "built" if self.emulation is not None else "unbuilt"
        return (
            f"<Scenario {self.name!r} mode={self._mode.name} "
            f"cores={self._cores} hosts={self._hosts} {built}>"
        )
