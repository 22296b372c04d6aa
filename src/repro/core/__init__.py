"""The ModelNet core: pipes, scheduler, phases, multi-core emulation.

This package is the paper's primary contribution. The five phases
(Sec. 2.1) map to modules as:

* Create   — :mod:`repro.topology` (imported, not duplicated here)
* Distill  — :mod:`repro.core.distill`
* Assign   — :mod:`repro.core.assign`
* Bind     — :mod:`repro.core.bind`
* Run      — :mod:`repro.core.emulator` wiring
  :mod:`repro.core.node`, :mod:`repro.core.pipe`,
  :mod:`repro.core.scheduler`, :mod:`repro.core.pod`

plus the accuracy/scalability machinery of Sec. 4:
:mod:`repro.core.crosstraffic` (synthetic background traffic via pipe
parameter adjustment) and :mod:`repro.core.faults` (dynamic network
changes), with :mod:`repro.core.monitor` playing the role of the
kernel logging package.
"""

from repro.core.packet import PacketDescriptor
from repro.core.queues import DropTailQueue, REDQueue
from repro.core.pipe import Pipe
from repro.core.scheduler import PipeScheduler
from repro.core.distill import DistillationMode, DistillationResult, distill
from repro.core.assign import Assignment, greedy_k_clusters, assign_by_vn_groups
from repro.core.bind import Binding, bind_vns
from repro.core.emulator import Emulation, EmulationConfig, VirtualNode
from repro.core.phases import ExperimentPipeline
from repro.core.crosstraffic import CrossTrafficMatrix, CrossTrafficModel
from repro.core.faults import FaultApplier
from repro.core.monitor import EmulationMonitor, AccuracyReport
from repro.core.routing_emulation import DistanceVectorRouting
from repro.core.reassign import DynamicReassigner
from repro.core.tracelog import TraceLog

__all__ = [
    "PacketDescriptor",
    "DropTailQueue",
    "REDQueue",
    "Pipe",
    "PipeScheduler",
    "DistillationMode",
    "DistillationResult",
    "distill",
    "Assignment",
    "greedy_k_clusters",
    "assign_by_vn_groups",
    "Binding",
    "bind_vns",
    "Emulation",
    "EmulationConfig",
    "VirtualNode",
    "ExperimentPipeline",
    "CrossTrafficMatrix",
    "CrossTrafficModel",
    "FaultApplier",
    "EmulationMonitor",
    "AccuracyReport",
    "DistanceVectorRouting",
    "DynamicReassigner",
    "TraceLog",
]
