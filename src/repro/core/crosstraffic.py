"""Synthetic cross traffic via dynamic pipe-parameter adjustment.

Paper Sec. 4.3: rather than generating real background packets (which
consumes edge and core resources), ModelNet lets users specify a
matrix of background bandwidth demand between VN pairs. An offline
tool propagates the matrix through the routing tables to a per-pipe
background load, and derives new pipe settings from a simple
analytical queueing model:

* bandwidth shrinks by the background load on the pipe;
* latency grows by the M/M/1 queueing delay at the implied
  utilization;
* the queue bound shrinks to model the occupied steady-state queue.

This scales independently of the cross-traffic rate, at the cost of
unresponsive (non-congestion-reactive) background flows — an error
that grows with utilization, as the paper notes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro.core.emulator import Emulation


class CrossTrafficMatrix:
    """Background demand (bits/sec) between VN pairs."""

    def __init__(self):
        self._demand: Dict[Tuple[int, int], float] = {}

    def set_demand(self, src_vn: int, dst_vn: int, bps: float) -> None:
        if bps < 0:
            raise ValueError("demand must be >= 0")
        if bps == 0:
            self._demand.pop((src_vn, dst_vn), None)
        else:
            self._demand[(src_vn, dst_vn)] = float(bps)

    def demand(self, src_vn: int, dst_vn: int) -> float:
        return self._demand.get((src_vn, dst_vn), 0.0)

    def pairs(self) -> Iterable[Tuple[int, int, float]]:
        for (src, dst), bps in sorted(self._demand.items()):
            yield src, dst, bps

    @classmethod
    def uniform(cls, vn_ids, bps: float) -> "CrossTrafficMatrix":
        """All-pairs uniform background demand among ``vn_ids``."""
        matrix = cls()
        ids = list(vn_ids)
        for src in ids:
            for dst in ids:
                if src != dst:
                    matrix.set_demand(src, dst, bps)
        return matrix


@dataclass
class PipeAdjustment:
    """Derived settings for one pipe under background load."""

    pipe_id: int
    background_bps: float
    bandwidth_bps: float
    extra_latency_s: float
    queue_limit: int


class CrossTrafficModel:
    """Propagates a demand matrix to pipe parameter adjustments.

    ``apply`` installs the derived settings; ``clear`` restores the
    original pipe parameters. ``schedule_profile`` installs a series
    of matrices over time (the "snapshot profiles" of the paper).
    """

    #: Background load is capped at this fraction of pipe capacity so
    #: foreground traffic always retains some bandwidth.
    MAX_UTILIZATION = 0.95
    #: Mean background packet size used by the queueing model.
    MEAN_PACKET_BYTES = 1000

    def __init__(self, emulation: Emulation):
        self.emulation = emulation
        # Every change to a pipe goes through its build, so a pipe not
        # built yet still has its bind-time parameters: only the built
        # ones need a snapshot (see _baseline_of).
        self._baseline: Dict[int, Tuple[float, float, int]] = {
            pipe.id: (pipe.bandwidth_bps, pipe.latency_s, pipe.queue_limit)
            for pipe in emulation.pipes.built()
        }

    def _baseline_of(self, pipe_id: int) -> Tuple[float, float, int]:
        """(bandwidth, latency, queue limit) of ``pipe_id`` when this
        model was made."""
        baseline = self._baseline.get(pipe_id)
        if baseline is None:
            spec = self.emulation.pipes.initial(pipe_id)
            baseline = (spec.bandwidth_bps, spec.latency_s, spec.queue_limit)
        return baseline

    # ------------------------------------------------------------------

    def propagate(self, matrix: CrossTrafficMatrix) -> List[PipeAdjustment]:
        """Offline propagation of matrix demand through the routing
        tables to per-pipe background load and derived settings."""
        load: Dict[int, float] = {}
        for src, dst, bps in matrix.pairs():
            pipes = self.emulation.lookup_pipes(src, dst)
            if not pipes:
                continue
            for pipe in pipes:
                load[pipe.id] = load.get(pipe.id, 0.0) + bps

        adjustments: List[PipeAdjustment] = []
        for pipe_id, background in sorted(load.items()):
            base_bw, base_lat, base_queue = self._baseline_of(pipe_id)
            background = min(background, self.MAX_UTILIZATION * base_bw)
            utilization = background / base_bw
            effective_bw = base_bw - background
            # M/M/1 mean waiting time with service time of one mean
            # packet at the original line rate.
            service_s = self.MEAN_PACKET_BYTES * 8.0 / base_bw
            extra_latency = service_s * utilization / (1.0 - utilization)
            queue_limit = max(1, int(round(base_queue * (1.0 - utilization))))
            adjustments.append(
                PipeAdjustment(
                    pipe_id=pipe_id,
                    background_bps=background,
                    bandwidth_bps=effective_bw,
                    extra_latency_s=extra_latency,
                    queue_limit=queue_limit,
                )
            )
        return adjustments

    def apply(self, matrix: CrossTrafficMatrix) -> List[PipeAdjustment]:
        """Derive and install pipe settings for ``matrix``. Pipes not
        loaded by the matrix revert to their baseline (a pipe not built
        yet is at it already)."""
        adjustments = self.propagate(matrix)
        adjusted_ids = {adj.pipe_id for adj in adjustments}
        table = self.emulation.pipes
        for pipe in table.built():
            if pipe.id not in adjusted_ids:
                bw, lat, queue = self._baseline_of(pipe.id)
                # Cross-traffic distillation is its own sanctioned
                # pipe-parameter seam: profiles are scheduled on the
                # owning kernel, so every backend applies them at the
                # same virtual time.
                pipe.set_params(  # repro: allow-fault-mutation
                    bandwidth_bps=bw, latency_s=lat, queue_limit=queue
                )
        for adj in adjustments:
            pipe = table.by_id(adj.pipe_id)
            _bw, base_lat, _queue = self._baseline_of(adj.pipe_id)
            pipe.set_params(  # repro: allow-fault-mutation
                bandwidth_bps=adj.bandwidth_bps,
                latency_s=base_lat + adj.extra_latency_s,
                queue_limit=adj.queue_limit,
            )
        return adjustments

    def clear(self) -> None:
        """Restore every pipe to its baseline parameters (a pipe not
        built yet is at them already)."""
        for pipe in self.emulation.pipes.built():
            bw, lat, queue = self._baseline_of(pipe.id)
            pipe.set_params(  # repro: allow-fault-mutation
                bandwidth_bps=bw, latency_s=lat, queue_limit=queue
            )

    def schedule_profile(
        self,
        profile: Iterable[Tuple[float, Optional[CrossTrafficMatrix]]],
    ) -> None:
        """Install (time, matrix) snapshots; a None matrix clears."""
        sim = self.emulation.sim
        for when, matrix in profile:
            if matrix is None:
                sim.at(when, self.clear)
            else:
                sim.at(when, self.apply, matrix)
