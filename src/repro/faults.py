"""Declarative fault timelines (paper Sec. 4.3, spec-portable form).

A :class:`FaultPlan` is a frozen, picklable timeline of typed events
that travels *inside* the ``ScenarioSpec`` (so it reaches multiprocess
workers, checkpoints and sweeps), is applied by the single sanctioned
:class:`repro.core.faults.FaultApplier`, and produces digest-identical
event streams across backends and worker counts. Random stress tests
are plans too: :func:`random_stress` draws one from a seeded RNG.

Timeline semantics
------------------
* Times are absolute virtual seconds from the start of the run.
* On every backend (one domain, the serial epoch loop, every
  multiprocess worker) an event at time *t* is applied at exactly
  *t*: after every emulator event before *t* and before any event at
  or after *t*, once per process, in timeline order. A partitioned run
  stops every domain's epoch at *t* and applies it at that barrier.
* An event at or before the run's ``until`` is applied even when
  traffic has drained before it.
* ``LinkDown`` flushes in-flight packets on the pipe into the
  ``drops_down`` counter and invalidates routes (dummynet semantics:
  a dead wire loses what was on it).
* ``Perturbation`` scales are relative to the link's parameters *at
  first perturbation* (lazy snapshot), so a deliberate
  ``SetLinkParams`` earlier in the timeline is not clobbered when the
  perturbation window restores "originals".
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field, fields, replace
from typing import Dict, Iterable, Mapping, Optional, Tuple, Union


class FaultPlanError(ValueError):
    """A fault plan is structurally invalid or unsafe for the
    topology/partitioning it was installed on (e.g. it lowers a
    cross-domain latency below the lookahead floor)."""


@dataclass(frozen=True)
class LinkDown:
    """Fail one link at an absolute time."""

    time_s: float
    link_id: int


@dataclass(frozen=True)
class LinkUp:
    """Recover one link at an absolute time."""

    time_s: float
    link_id: int


@dataclass(frozen=True)
class SetLinkParams:
    """Set pipe parameters on one link at an absolute time.

    ``None`` fields are left unchanged, so a sequence of these events
    forms a piecewise parameter timeline. In-flight packets keep
    their scheduled times (dummynet semantics)."""

    time_s: float
    link_id: int
    bandwidth_bps: Optional[float] = None
    latency_s: Optional[float] = None
    loss_rate: Optional[float] = None
    queue_limit: Optional[int] = None

    def params(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for name in ("bandwidth_bps", "latency_s", "loss_rate", "queue_limit"):
            value = getattr(self, name)
            if value is not None:
                out[name] = value
        return out


@dataclass(frozen=True)
class NodeChurn:
    """Fail (``up=False``) or recover (``up=True``) every link
    incident to a topology node at an absolute time."""

    time_s: float
    node_id: int
    up: bool = False


@dataclass(frozen=True)
class Partition:
    """Fail a cut set of links at once; optionally heal the whole set
    at ``heal_s``. Traffic crossing the cut surfaces as typed drops
    (``drops_down`` / ``accuracy.packets_unroutable``), never a
    routing error."""

    time_s: float
    link_ids: Tuple[int, ...]
    heal_s: Optional[float] = None

    def __post_init__(self):
        object.__setattr__(self, "link_ids", tuple(self.link_ids))


@dataclass(frozen=True)
class Perturbation:
    """A recurring random perturbation window.

    Every ``period_s`` within ``[start_s, stop_s)`` a fraction
    ``link_fraction`` of the candidate links is drawn from the plan's
    named RNG stream and each has its latency scaled by a factor
    uniform in ``latency_scale`` (and bandwidth/loss likewise when
    given). At the first firing at or past ``stop_s`` every candidate
    link reverts to its snapshot. ``link_ids=()`` means all links."""

    start_s: float
    stop_s: float
    period_s: float
    link_fraction: float = 0.25
    latency_scale: Tuple[float, float] = (1.0, 1.25)
    bandwidth_scale: Optional[Tuple[float, float]] = None
    loss_add: Optional[Tuple[float, float]] = None
    link_ids: Tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "link_ids", tuple(self.link_ids))
        object.__setattr__(self, "latency_scale", tuple(self.latency_scale))
        if self.bandwidth_scale is not None:
            object.__setattr__(
                self, "bandwidth_scale", tuple(self.bandwidth_scale)
            )
        if self.loss_add is not None:
            object.__setattr__(self, "loss_add", tuple(self.loss_add))


FaultEvent = Union[LinkDown, LinkUp, SetLinkParams, NodeChurn, Partition, Perturbation]

_EVENT_KINDS = {
    "link_down": LinkDown,
    "link_up": LinkUp,
    "set_link_params": SetLinkParams,
    "node_churn": NodeChurn,
    "partition": Partition,
    "perturbation": Perturbation,
}
_KIND_OF = {cls: kind for kind, cls in _EVENT_KINDS.items()}

#: ``FaultPlan.with_overrides`` axis names → how they rewrite
#: ``Perturbation`` entries. These mirror the ``acdc`` traffic knobs
#: so one experiment axis sweeps both the sampling window and the
#: plan itself.
PLAN_OVERRIDE_KEYS = (
    "perturb_start",
    "perturb_stop",
    "period_s",
    "link_fraction",
    "latency_scale_max",
)


@dataclass(frozen=True)
class FaultPlan:
    """An immutable, picklable timeline of fault events.

    Events need not be pre-sorted; application order is by
    ``(time, position-in-plan)``. ``stream`` names the RNG stream all
    stochastic draws come from (one per plan, derived from the run
    seed), so adding a plan never perturbs other components' draws.
    """

    events: Tuple[FaultEvent, ...] = ()
    stream: str = "faults"

    def __post_init__(self):
        object.__setattr__(self, "events", tuple(self.events))

    @classmethod
    def of(cls, *events: FaultEvent, stream: str = "faults") -> "FaultPlan":
        return cls(events=tuple(events), stream=stream)

    def __bool__(self) -> bool:
        return bool(self.events)

    # -- spec round trip -------------------------------------------------

    def to_jsonable(self) -> dict:
        encoded = []
        for event in self.events:
            entry = {"kind": _KIND_OF[type(event)]}
            for f in fields(event):
                value = getattr(event, f.name)
                if isinstance(value, tuple):
                    value = list(value)
                entry[f.name] = value
            encoded.append(entry)
        return {"stream": self.stream, "events": encoded}

    @classmethod
    def from_jsonable(cls, obj: Mapping) -> "FaultPlan":
        if not isinstance(obj, Mapping):
            raise FaultPlanError(f"fault plan must be a mapping, got {type(obj).__name__}")
        events = []
        for entry in obj.get("events", ()):
            entry = dict(entry)
            kind = entry.pop("kind", None)
            event_cls = _EVENT_KINDS.get(kind)
            if event_cls is None:
                raise FaultPlanError(
                    f"unknown fault event kind {kind!r} "
                    f"(valid: {', '.join(sorted(_EVENT_KINDS))})"
                )
            for name, value in list(entry.items()):
                if isinstance(value, list):
                    entry[name] = tuple(value)
            try:
                events.append(event_cls(**entry))
            except TypeError as error:
                raise FaultPlanError(f"bad {kind} event: {error}") from None
        return cls(events=tuple(events), stream=obj.get("stream", "faults"))

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_jsonable(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        return cls.from_jsonable(json.loads(text))

    @classmethod
    def from_json_file(cls, path: str) -> "FaultPlan":
        with open(path) as handle:
            return cls.from_jsonable(json.load(handle))

    # -- sweepable axes --------------------------------------------------

    def with_overrides(self, **overrides) -> "FaultPlan":
        """Rewrite every ``Perturbation`` entry with the given axis
        values (``perturb_start``/``perturb_stop``/``period_s``/
        ``link_fraction``/``latency_scale_max``) so fault intensity
        can be swept by ``repro.exp``. Unknown keys raise."""
        unknown = set(overrides) - set(PLAN_OVERRIDE_KEYS)
        if unknown:
            raise FaultPlanError(
                f"unknown fault plan override(s) {sorted(unknown)}; "
                f"valid: {list(PLAN_OVERRIDE_KEYS)}"
            )
        events = []
        for event in self.events:
            if isinstance(event, Perturbation):
                changes = {}
                if "perturb_start" in overrides:
                    changes["start_s"] = float(overrides["perturb_start"])
                if "perturb_stop" in overrides:
                    changes["stop_s"] = float(overrides["perturb_stop"])
                if "period_s" in overrides:
                    changes["period_s"] = float(overrides["period_s"])
                if "link_fraction" in overrides:
                    changes["link_fraction"] = float(overrides["link_fraction"])
                if "latency_scale_max" in overrides:
                    low = event.latency_scale[0]
                    changes["latency_scale"] = (
                        low, float(overrides["latency_scale_max"])
                    )
                event = replace(event, **changes)
            events.append(event)
        return replace(self, events=tuple(events))

    # -- validation & lookahead support ---------------------------------

    def validate(self, topology) -> None:
        """Check every referenced link/node exists and every time and
        range is sane. Raises :class:`FaultPlanError` (never a
        ``KeyError`` later, mid-run)."""
        links = topology.links
        for position, event in enumerate(self.events):
            where = f"events[{position}] ({_KIND_OF[type(event)]})"
            if isinstance(event, (LinkDown, LinkUp)):
                if event.time_s < 0:
                    raise FaultPlanError(f"{where}: negative time {event.time_s}")
                if event.link_id not in links:
                    raise FaultPlanError(f"{where}: unknown link {event.link_id}")
            elif isinstance(event, SetLinkParams):
                if event.time_s < 0:
                    raise FaultPlanError(f"{where}: negative time {event.time_s}")
                if event.link_id not in links:
                    raise FaultPlanError(f"{where}: unknown link {event.link_id}")
                if not event.params():
                    raise FaultPlanError(f"{where}: no parameters to set")
                if event.latency_s is not None and event.latency_s < 0:
                    raise FaultPlanError(
                        f"{where}: negative latency {event.latency_s}"
                    )
            elif isinstance(event, NodeChurn):
                if event.time_s < 0:
                    raise FaultPlanError(f"{where}: negative time {event.time_s}")
                if not topology.links_of(event.node_id):
                    raise FaultPlanError(
                        f"{where}: node {event.node_id} has no links"
                    )
            elif isinstance(event, Partition):
                if event.time_s < 0:
                    raise FaultPlanError(f"{where}: negative time {event.time_s}")
                if not event.link_ids:
                    raise FaultPlanError(f"{where}: empty cut set")
                for link_id in event.link_ids:
                    if link_id not in links:
                        raise FaultPlanError(f"{where}: unknown link {link_id}")
                if event.heal_s is not None and event.heal_s < event.time_s:
                    raise FaultPlanError(
                        f"{where}: heal_s {event.heal_s} precedes cut"
                    )
            elif isinstance(event, Perturbation):
                if event.period_s <= 0:
                    raise FaultPlanError(f"{where}: period must be positive")
                if event.stop_s < event.start_s:
                    raise FaultPlanError(f"{where}: stop precedes start")
                if not 0.0 < event.link_fraction <= 1.0:
                    raise FaultPlanError(
                        f"{where}: link_fraction {event.link_fraction} "
                        f"outside (0, 1]"
                    )
                for link_id in event.link_ids:
                    if link_id not in links:
                        raise FaultPlanError(f"{where}: unknown link {link_id}")
            else:
                raise FaultPlanError(f"{where}: unsupported event {event!r}")

    def min_latency(self, topology) -> Dict[int, float]:
        """Per plan-touched link, the minimum latency the timeline can
        reach. This is what the lookahead matrix must be derived from
        — a bound derived from bind-time latencies alone would break
        causality the moment the timeline lowers one."""
        minimums: Dict[int, float] = {}

        def fold(link_id: int, value: float) -> None:
            current = minimums.get(link_id)
            minimums[link_id] = value if current is None else min(current, value)

        for event in self.events:
            if isinstance(event, SetLinkParams) and event.latency_s is not None:
                fold(event.link_id, event.latency_s)
            elif isinstance(event, Perturbation):
                low = min(1.0, min(event.latency_scale))
                if low >= 1.0:
                    continue
                targets = event.link_ids or tuple(sorted(topology.links))
                for link_id in targets:
                    base = topology.links[link_id].latency_s
                    # Scales apply to the (possibly SetLinkParams-set)
                    # snapshot; fold both the base and any explicit
                    # value already seen for this link.
                    explicit = minimums.get(link_id, base)
                    fold(link_id, min(base, explicit) * low)
        return minimums


def random_stress(
    rng: random.Random,
    link_ids: Iterable[int],
    start_s: float,
    stop_s: float,
    mean_failure_interval_s: float = 10.0,
    mean_outage_s: float = 3.0,
    perturbation: Optional[Perturbation] = None,
    protect: Iterable[int] = (),
) -> FaultPlan:
    """A randomized stress timeline (paper Sec. 4.3: "random stress
    tests are useful because it is often just as important to
    identify conditions under which services will fail").

    Random links among ``link_ids`` fail at exponential intervals
    within ``[start_s, stop_s)`` and recover after exponential
    outages (clamped to ``stop_s``): one ``LinkDown``/``LinkUp`` pair
    per outage. ``perturbation``, when given, rides along as the
    plan's last event. ``protect`` lists link ids never failed (e.g.
    a service's only access link). The plan is a pure function of
    ``rng``'s state and the arguments.
    """
    protected = set(protect)
    candidates = [link_id for link_id in sorted(link_ids) if link_id not in protected]
    if not candidates:
        raise FaultPlanError("no links eligible for stress")
    events: list = []
    now = start_s
    while True:
        now += rng.expovariate(1.0 / mean_failure_interval_s)
        if now >= stop_s:
            break
        link_id = rng.choice(candidates)
        outage = rng.expovariate(1.0 / mean_outage_s)
        events.append(LinkDown(now, link_id))
        events.append(LinkUp(min(stop_s, now + outage), link_id))
    if perturbation is not None:
        events.append(perturbation)
    return FaultPlan.of(*events)
