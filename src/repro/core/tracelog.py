"""The kernel logging package analog (paper Sec. 3.1).

"We developed a kernel logging package to track the performance and
accuracy of ModelNet. The advantage of this approach is that
information can be efficiently buffered and stored offline for later
analysis."

:class:`TraceLog` is that package: a bounded in-memory ring of
structured records emitted by an instrumented emulation, with offline
dump/load and per-packet analysis helpers. It attaches to an
:class:`~repro.core.emulator.Emulation` by wrapping the monitor's
per-packet hooks and (optionally) sampling pipe state.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, Iterable, List, Optional, Tuple

# Record kinds.
PKT_ENTER = "enter"
PKT_EXIT = "exit"
PKT_DROP = "drop"
PIPE_SAMPLE = "pipe"


@dataclass(frozen=True)
class Record:
    """One log record. ``data`` is kind-specific."""

    time: float
    kind: str
    data: Tuple

    def to_json(self) -> str:
        return json.dumps({"t": self.time, "k": self.kind, "d": list(self.data)})

    @classmethod
    def from_json(cls, line: str) -> "Record":
        raw = json.loads(line)
        return cls(raw["t"], raw["k"], tuple(raw["d"]))


class TraceLog:
    """A bounded ring of records plus analysis over them."""

    def __init__(self, capacity: int = 500_000):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._records: Deque[Record] = deque(maxlen=capacity)
        self.emitted = 0

    # -- emission -------------------------------------------------------

    def emit(self, time: float, kind: str, *data) -> None:
        self._records.append(Record(time, kind, tuple(data)))
        self.emitted += 1

    @property
    def dropped_records(self) -> int:
        """Records evicted by the ring bound."""
        return self.emitted - len(self._records)

    def __len__(self) -> int:
        return len(self._records)

    def records(self, kind: Optional[str] = None) -> List[Record]:
        if kind is None:
            return list(self._records)
        return [record for record in self._records if record.kind == kind]

    # -- offline storage ---------------------------------------------------

    def dump(self, path: str) -> int:
        """Write records as JSON lines; returns the count written."""
        with open(path, "w") as handle:
            for record in self._records:
                handle.write(record.to_json() + "\n")
        return len(self._records)

    @classmethod
    def load(cls, path: str) -> "TraceLog":
        log = cls()
        with open(path) as handle:
            for line in handle:
                line = line.strip()
                if line:
                    log._records.append(Record.from_json(line))
                    log.emitted += 1
        return log

    # -- attachment ---------------------------------------------------------

    def attach(self, emulation, sample_pipes_every_s: float = 0.0) -> None:
        """Instrument an emulation: per-packet enter/exit records via
        the monitor hooks, optional periodic pipe backlog samples."""
        monitor = emulation.monitor
        sim = emulation.sim
        original_entered = monitor.packet_entered
        original_exited = monitor.packet_exited
        original_ring_drop = monitor.ring_drop

        def entered():
            self.emit(sim.now, PKT_ENTER)
            original_entered()

        def exited(ideal, actual):
            self.emit(sim.now, PKT_EXIT, actual - ideal)
            original_exited(ideal, actual)

        def ring_drop():
            self.emit(sim.now, PKT_DROP, "ring")
            original_ring_drop()

        monitor.packet_entered = entered
        monitor.packet_exited = exited
        monitor.ring_drop = ring_drop

        if sample_pipes_every_s > 0:
            def sample():
                for pipe in emulation.pipes.built():
                    if pipe.in_flight:
                        self.emit(
                            sim.now, PIPE_SAMPLE, pipe.id, pipe.backlog_pkts,
                            pipe.in_flight,
                        )
                sim.schedule(sample_pipes_every_s, sample)

            sim.schedule(sample_pipes_every_s, sample)

    # -- observability bridge ----------------------------------------------

    def export(self, registry) -> None:
        """Publish ring statistics and the logged per-packet error
        distribution into an observability registry (``trace.*``)."""
        registry.gauge("trace.records").set(len(self._records))
        registry.gauge("trace.emitted").set(self.emitted)
        registry.gauge("trace.dropped_records").set(self.dropped_records)
        errors = registry.histogram("trace.error_s")
        for record in self._records:
            if record.kind == PKT_EXIT:
                errors.observe(record.data[0])

    # -- offline analysis ------------------------------------------------------

    def error_series(self) -> List[Tuple[float, float]]:
        """(time, per-packet emulation error) from exit records."""
        return [(r.time, r.data[0]) for r in self._records if r.kind == PKT_EXIT]

    def throughput_series(self, bucket_s: float = 1.0) -> List[Tuple[float, float]]:
        """Delivered packets/sec in fixed time buckets."""
        if bucket_s <= 0:
            raise ValueError("bucket must be positive")
        counts: Dict[int, int] = {}
        for record in self._records:
            if record.kind == PKT_EXIT:
                counts[int(record.time / bucket_s)] = (
                    counts.get(int(record.time / bucket_s), 0) + 1
                )
        return [
            (bucket * bucket_s, count / bucket_s)
            for bucket, count in sorted(counts.items())
        ]

    def worst_pipe_backlogs(self, top: int = 5) -> List[Tuple[int, int]]:
        """(pipe id, max sampled backlog), worst first."""
        worst: Dict[int, int] = {}
        for record in self._records:
            if record.kind == PIPE_SAMPLE:
                pipe_id, backlog, _in_flight = record.data
                worst[pipe_id] = max(worst.get(pipe_id, 0), backlog)
        return sorted(worst.items(), key=lambda kv: -kv[1])[:top]
