"""Pipe ownership directory (POD).

For multi-core configurations, the next pipe in a route may be owned
by a different core node; the owning node is determined by a lookup
in a pipe ownership directory created during the Binding phase
(paper Sec. 2.2). The directory also records, per route, how many
core crossings it implies — the quantity Table 1 shows dominating
multi-core scalability.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence

from repro.core.assign import Assignment
from repro.core.pipe import Pipe


class PipeOwnershipDirectory:
    """Maps pipes to owning cores."""

    def __init__(self, assignment: Assignment):
        self.num_cores = assignment.num_cores
        self._link_to_core = dict(assignment.link_to_core)

    def owner_of(self, pipe: Pipe) -> int:
        return self._link_to_core[pipe.link_id]

    def crossings(self, pipes: Sequence[Pipe]) -> int:
        """Core-to-core crossings a descriptor makes along ``pipes``."""
        count = 0
        for earlier, later in zip(pipes, pipes[1:]):
            if self._link_to_core[earlier.link_id] != self._link_to_core[later.link_id]:
                count += 1
        return count

    def load_by_core(self, pipes: Iterable[Pipe]) -> List[int]:
        counts = [0] * self.num_cores
        for pipe in pipes:
            counts[self._link_to_core[pipe.link_id]] += 1
        return counts
