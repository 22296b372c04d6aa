"""Shared setup for the CFS reproduction benches (Figs. 7-9)."""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.apps.cfs import CfsNetwork
from repro.apps.rondata import ron_topology
from repro.core import EmulationConfig, ExperimentPipeline
from repro.core.assign import single_core
from repro.core.bind import Binding
from repro.core.emulator import Emulation
from repro.engine import Simulator

FILE_BYTES = 1_000_000
RON_SEED = 7


def build_ron_emulation(
    num_hosts: int = 12,
    model_edge_cpu: bool = False,
) -> Tuple[Simulator, Emulation]:
    """The 12 RON sites as VNs. ``num_hosts=12`` is the paper's
    "ModelNet 12 machines" configuration; ``num_hosts=1`` multiplexes
    all 12 VNs (and their processing) onto a single edge node — the
    "ModelNet 1 machine" curve."""
    sim = Simulator()
    topology, _sites = ron_topology(seed=RON_SEED)
    clients = sorted(node.id for node in topology.clients())
    binding = Binding(
        clients,
        [vn % num_hosts if num_hosts > 1 else 0 for vn in range(12)],
        [0] * num_hosts,
    )
    config = EmulationConfig.reference()
    config.model_edge_cpu = model_edge_cpu
    emulation = Emulation(
        sim,
        topology,
        config,
        assignment=single_core(topology),
        binding=binding,
        seed=0,
    )
    return sim, emulation


def cfs_download_speed(
    sim: Simulator,
    network: CfsNetwork,
    client_vn: int,
    file_id: str,
    prefetch_bytes: int,
    deadline_s: float = 600.0,
) -> Optional[float]:
    """Run one 1 MB download; returns bytes/sec, or None on timeout."""
    speeds: List[float] = []
    network.client(client_vn).download(
        file_id, FILE_BYTES, prefetch_bytes=prefetch_bytes,
        on_done=speeds.append,
    )
    sim.run(until=sim.now + deadline_s)
    return speeds[0] if speeds else None
