"""The five-phase pipeline: Create, Distill, Assign, Bind, Run.

:class:`ExperimentPipeline` is a small builder that walks a topology
through the paper's phases (Fig. 2) and produces a running
:class:`~repro.core.emulator.Emulation`:

>>> emulation = (
...     ExperimentPipeline(sim)
...     .create(ring_topology())
...     .distill(DistillationMode.WALK_IN, walk_in=1)
...     .assign(num_cores=2)
...     .bind(num_hosts=4)
...     .run()
... )
"""

from __future__ import annotations

from typing import Optional

from repro.core.assign import Assignment, greedy_k_clusters, single_core
from repro.core.bind import Binding, bind_vns, bind_vns_locality
from repro.core.distill import DistillationMode, DistillationResult, distill
from repro.core.emulator import Emulation, EmulationConfig
from repro.engine.randomness import RngRegistry
from repro.engine.simulator import Simulator
from repro.topology.gml import parse_gml
from repro.topology.graph import Topology, TopologyError


class ExperimentPipeline:
    """Fluent Create -> Distill -> Assign -> Bind -> Run pipeline.

    The pipeline is the one owner of placement and seed: Assign picks
    the cores, Bind the hosts, and :meth:`run` hands both, with the
    seed, to the :class:`~repro.core.emulator.Emulation` it builds.
    The :class:`EmulationConfig` says only how to emulate."""

    def __init__(self, sim: Simulator, seed: int = 0):
        self.sim = sim
        self.seed = seed
        self.target: Optional[Topology] = None
        self.distillation: Optional[DistillationResult] = None
        self.assignment: Optional[Assignment] = None
        self.binding: Optional[Binding] = None

    # -- Create -----------------------------------------------------------

    def create(self, topology: Topology) -> "ExperimentPipeline":
        """Install the target topology (from any generator/source)."""
        topology.validate()
        if not topology.clients():
            raise TopologyError("target topology has no client (VN) nodes")
        self.target = topology
        return self

    def create_gml(self, gml_text: str) -> "ExperimentPipeline":
        """Install a target topology from GML text."""
        return self.create(parse_gml(gml_text))

    # -- Distill ---------------------------------------------------------

    def distill(
        self,
        mode: DistillationMode = DistillationMode.HOP_BY_HOP,
        walk_in: int = 1,
        walk_out: int = 0,
    ) -> "ExperimentPipeline":
        """Distill the target topology (Sec. 4.1 modes)."""
        if self.target is None:
            raise TopologyError("Create phase must run before Distill")
        self.distillation = distill(
            self.target, mode, walk_in=walk_in, walk_out=walk_out
        )
        return self

    @property
    def distilled(self) -> Topology:
        if self.distillation is None:
            raise TopologyError("Distill phase has not run")
        return self.distillation.topology

    # -- Assign ------------------------------------------------------------

    def assign(
        self,
        num_cores: int = 1,
        assignment: Optional[Assignment] = None,
    ) -> "ExperimentPipeline":
        """Partition the distilled pipes across cores."""
        if self.distillation is None:
            self.distill()  # default: pure hop-by-hop
        if assignment is not None:
            self.assignment = assignment
            return self
        if num_cores == 1:
            self.assignment = single_core(self.distilled)
        else:
            self.assignment = greedy_k_clusters(
                self.distilled, num_cores, RngRegistry(self.seed).stream("assign")
            )
        return self

    # -- Bind ----------------------------------------------------------------

    def bind(
        self,
        num_hosts: Optional[int] = None,
        strategy: str = "contiguous",
        binding: Optional[Binding] = None,
    ) -> "ExperimentPipeline":
        """Bind VNs to edge hosts and hosts to cores.

        Without ``num_hosts`` (or a precomputed ``binding``), the
        default follows the simulator: one edge host on a single
        event domain, locality binding
        (:func:`~repro.core.bind.bind_vns_locality`: balanced
        per-domain edge load, pipe-latency lookahead on every
        crossing) on a partitioned one. An explicit ``num_hosts``,
        1 included, is always honoured, and :meth:`run` uses the
        result as given."""
        if self.assignment is None:
            self.assign()
        if binding is None:
            if num_hosts is None and len(getattr(self.sim, "domains", ())) > 1:
                binding = bind_vns_locality(self.distilled, self.assignment)
            else:
                binding = bind_vns(
                    self.distilled,
                    1 if num_hosts is None else num_hosts,
                    self.assignment.num_cores,
                    strategy,
                )
        self.binding = binding
        return self

    # -- Run -------------------------------------------------------------------

    def run(
        self,
        config: Optional[EmulationConfig] = None,
        registry=None,
    ) -> Emulation:
        """Build the emulation (traffic starts when the caller runs
        the simulator). Pass a live
        :class:`~repro.obs.MetricsRegistry` to arm observability."""
        if self.binding is None:
            self.bind()
        if config is None:
            config = EmulationConfig()
        config.validate()
        return Emulation(
            self.sim,
            self.distilled,
            config,
            assignment=self.assignment,
            binding=self.binding,
            seed=self.seed,
            registry=registry,
        )
