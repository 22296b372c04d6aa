"""Fault injection and dynamic network changes (paper Sec. 4.3).

Users can direct ModelNet to change the bandwidth, delay, and loss
rate of a set of links according to a specified probability
distribution every x seconds, and to fail/recover links and nodes
(with instantaneous shortest-path recomputation). Random stress tests
"identify conditions under which services will fail".

Every such change is a declarative :class:`repro.faults.FaultPlan`;
:class:`FaultApplier` is the one mechanism that applies it — link
changes, failures and random stress
(:func:`repro.faults.random_stress`) alike.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.core.emulator import Emulation
from repro.engine.domain import INFINITY
from repro.faults import (
    FaultPlan,
    FaultPlanError,
    LinkDown,
    LinkUp,
    NodeChurn,
    Partition,
    Perturbation,
    SetLinkParams,
)


class FaultApplier:
    """The single sanctioned applier for a declarative
    :class:`repro.faults.FaultPlan`.

    The plan is lowered once to a sorted occurrence list, the only
    fault schedule. :meth:`install` hands it to the simulator's run
    loop, which stops at each occurrence time *t* and calls
    :meth:`apply_until`: the occurrence is applied after every event
    before *t* and before any event at or after *t*, once per process,
    on every backend — a single domain, the serial epoch loop and
    every multiprocess worker (which apply the same occurrences at the
    same barrier, keeping per-process pipe and routing state, and so
    the event stream, identical).

    All stochastic draws come from the plan's named RNG stream, in
    timeline order, so the draw sequence is backend-invariant.
    """

    def __init__(self, emulation: Emulation, plan: FaultPlan):
        self.emulation = emulation
        self.plan = plan
        self.rng = emulation.rng.stream(plan.stream)
        #: Lazy per-link snapshots, taken at each link's first
        #: perturbation (see :meth:`_original_of`).
        self._originals: Dict[int, Tuple[float, float, float]] = {}
        self.injected = 0
        self.recovered = 0
        self.perturbations_applied = 0
        #: Timeline position: occurrences applied so far. Captured by
        #: checkpoints so a resume can verify the replayed timeline
        #: reached the same position.
        self.applied = 0
        #: Applied fault events, for the RunReport
        #: (``time``/``kind``/``links`` dicts, in application order).
        self.events_log: List[dict] = []
        self._occurrences = self._lower()
        self._cursor = 0

    # -- lowering ----------------------------------------------------------

    def _lower(self) -> List[Tuple[float, int, int, tuple]]:
        """Flatten the plan into ``(time, plan_position, sub, action)``
        occurrences sorted by time (ties: plan order). A recurring
        perturbation expands to its firings, ``start_s`` plus
        ``period_s`` accumulated in float, and a final restore."""
        occurrences: List[Tuple[float, int, int, tuple]] = []
        for position, event in enumerate(self.plan.events):
            if isinstance(event, LinkDown):
                occurrences.append(
                    (event.time_s, position, 0, ("down", (event.link_id,)))
                )
            elif isinstance(event, LinkUp):
                occurrences.append(
                    (event.time_s, position, 0, ("up", (event.link_id,)))
                )
            elif isinstance(event, SetLinkParams):
                occurrences.append(
                    (event.time_s, position, 0,
                     ("set", event.link_id, event.params()))
                )
            elif isinstance(event, NodeChurn):
                kind = "up" if event.up else "down"
                links = tuple(
                    link.id
                    for link in self.emulation.topology.links_of(event.node_id)
                )
                occurrences.append((event.time_s, position, 0, (kind, links)))
            elif isinstance(event, Partition):
                occurrences.append(
                    (event.time_s, position, 0, ("down", event.link_ids))
                )
                if event.heal_s is not None:
                    occurrences.append(
                        (event.heal_s, position, 1, ("up", event.link_ids))
                    )
            elif isinstance(event, Perturbation):
                candidates = tuple(
                    event.link_ids
                    or sorted(self.emulation.topology.links)
                )
                when, sub = event.start_s, 0
                while when < event.stop_s:
                    occurrences.append(
                        (when, position, sub, ("perturb", event, candidates))
                    )
                    when += event.period_s
                    sub += 1
                occurrences.append(
                    (when, position, sub, ("restore", candidates))
                )
            else:
                raise FaultPlanError(f"unsupported fault event {event!r}")
        occurrences.sort(key=lambda occ: (occ[0], occ[1], occ[2]))
        return occurrences

    def touched_links(self) -> List[int]:
        """Every link id the timeline can mutate, sorted."""
        touched = set()
        for _, _, _, action in self._occurrences:
            if action[0] in ("down", "up", "restore"):
                touched.update(action[1])
            elif action[0] == "set":
                touched.add(action[1])
            elif action[0] == "perturb":
                touched.update(action[2])
        return sorted(touched)

    def churned_links(self) -> List[int]:
        """Every link id the timeline can take down or bring up,
        sorted (perturbations, restores and parameter changes never
        change a link's up-flag)."""
        return sorted({
            link_id
            for _, _, _, action in self._occurrences
            if action[0] in ("down", "up")
            for link_id in action[1]
        })

    # -- the schedule ------------------------------------------------------

    def install(self) -> "FaultApplier":
        """Hand the timeline to the emulation's simulator, whose run
        loop stops at :meth:`next_time` and calls :meth:`apply_until`."""
        sim = self.emulation.sim
        if sim.fault_timeline is not None:
            raise FaultPlanError("fault plan already installed")
        sim.fault_timeline = self
        return self

    def next_time(self) -> float:
        """Time of the next unapplied occurrence (inf when none)."""
        if self._cursor < len(self._occurrences):
            return self._occurrences[self._cursor][0]
        return INFINITY

    def apply_until(self, until: float) -> None:
        """Apply every not-yet-applied occurrence with time <= until,
        in timeline order (the cursor only advances)."""
        occurrences = self._occurrences
        while self._cursor < len(occurrences):
            when, _, _, action = occurrences[self._cursor]
            if when > until:
                break
            self._apply_action(action, when)
            self._cursor += 1

    # -- primitive actions -------------------------------------------------

    def _apply_action(self, action: tuple, when: float) -> None:
        kind = action[0]
        if kind == "down":
            for link_id in action[1]:
                if self.emulation.topology.links[link_id].up:
                    self.injected += 1
                self.emulation.set_link_up(link_id, False)
            self._log(when, "link_down", action[1])
        elif kind == "up":
            for link_id in action[1]:
                if not self.emulation.topology.links[link_id].up:
                    self.recovered += 1
                self.emulation.set_link_up(link_id, True)
            self._log(when, "link_up", action[1])
        elif kind == "set":
            link_id, params = action[1], action[2]
            self._set_link(link_id, params)
            if link_id in self._originals:
                # A deliberate mid-window change becomes the new
                # "original" so the window's restore keeps it.
                bw, lat, loss = self._originals[link_id]
                self._originals[link_id] = (
                    params.get("bandwidth_bps", bw),
                    params.get("latency_s", lat),
                    params.get("loss_rate", loss),
                )
            self._log(when, "set_link_params", (link_id,))
        elif kind == "perturb":
            self._perturb_once(action[1], action[2], when)
        elif kind == "restore":
            restored = []
            for link_id in action[1]:
                snapshot = self._originals.get(link_id)
                if snapshot is None:
                    continue
                bw, lat, loss = snapshot
                self._set_link(
                    link_id,
                    {"bandwidth_bps": bw, "latency_s": lat, "loss_rate": loss},
                )
                restored.append(link_id)
            self._log(when, "restore", tuple(restored))
        else:
            raise FaultPlanError(f"unknown fault action {kind!r}")
        self.applied += 1

    def _perturb_once(
        self, event: Perturbation, candidates: Sequence[int], when: float
    ) -> None:
        count = max(1, int(round(event.link_fraction * len(candidates))))
        chosen = self.rng.sample(list(candidates), min(count, len(candidates)))
        for link_id in chosen:
            base_bw, base_lat, base_loss = self._original_of(link_id)
            params = {}
            low, high = event.latency_scale
            params["latency_s"] = base_lat * self.rng.uniform(low, high)
            if event.bandwidth_scale is not None:
                low, high = event.bandwidth_scale
                params["bandwidth_bps"] = max(
                    1.0, base_bw * self.rng.uniform(low, high)
                )
            if event.loss_add is not None:
                low, high = event.loss_add
                params["loss_rate"] = min(
                    0.99, base_loss + self.rng.uniform(low, high)
                )
            self._set_link(link_id, params)
        self.perturbations_applied += 1
        self._log(when, "perturbation", tuple(sorted(chosen)))

    def _original_of(self, link_id: int) -> Tuple[float, float, float]:
        """The link's parameters as of its first perturbation.

        Taken lazily — an eager snapshot at install would clobber a
        deliberate ``set_link_params`` made after it when the window
        restores "originals" — and read from the live pipe (or the
        state a pipe not built yet will be built with), not the
        topology link: ``Emulation.set_link_params`` only touches the
        pipes, and the snapshot must honor it."""
        snapshot = self._originals.get(link_id)
        if snapshot is None:
            pipes = self.emulation.pipes
            pipe = pipes.peek(pipes.pipe_id(link_id, 0))
            snapshot = (pipe.bandwidth_bps, pipe.latency_s, pipe.loss_rate)
            self._originals[link_id] = snapshot
        return snapshot

    def _set_link(self, link_id: int, params: dict) -> None:
        self.emulation.set_link_params(link_id, **params)
        link = self.emulation.topology.links[link_id]
        self.emulation.routing.link_changing(link)
        if "latency_s" in params:
            link.latency_s = params["latency_s"]
        if "bandwidth_bps" in params:
            link.bandwidth_bps = params["bandwidth_bps"]
        if "loss_rate" in params:
            link.loss_rate = params["loss_rate"]

    def _log(self, when: float, kind: str, links: Sequence[int]) -> None:
        self.events_log.append(
            {"time_s": round(when, 9), "kind": kind, "links": list(links)}
        )

    # -- state capture (checkpoints) ---------------------------------------

    def link_state(self) -> Dict[int, Tuple[bool, float, float, float]]:
        """(up, bandwidth, latency, loss) for every plan-touched link
        — the restored-vs-perturbed state a checkpoint must pin down
        so a resume can verify the replayed timeline byte-identically."""
        out: Dict[int, Tuple[bool, float, float, float]] = {}
        pipes = self.emulation.pipes
        for link_id in self.touched_links():
            pipe = pipes.peek(pipes.pipe_id(link_id, 0))
            out[link_id] = (
                bool(pipe.up),
                pipe.bandwidth_bps,
                pipe.latency_s,
                pipe.loss_rate,
            )
        return out
