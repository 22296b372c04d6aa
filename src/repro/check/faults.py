"""Fault-mutation discipline rules (FLT).

The declarative fault timeline (DESIGN.md §12, :mod:`repro.faults`)
keeps link/node churn digest-identical across backends by funneling
every topology mutation through one sanctioned applier
(:class:`repro.core.faults.FaultApplier`): a plan travels in the
:class:`~repro.api.ScenarioSpec`, is lowered to a sorted occurrence
list, and is applied either at exact virtual times (single-domain) or
at epoch barriers every participant computes identically
(partitioned, serial or multiprocess). Engine or core code that
mutates link state directly — calling ``set_link_up``/
``set_link_params``/``set_params``, or assigning a pipe's or link's
``latency_s``/``bandwidth_bps``/``loss_rate``/``up`` attribute —
changes per-process pipe state *outside* the timeline: workers that
never execute that code path diverge from workers that do, and the
digest contract breaks in a way the sanitizer only catches after the
fact. Route the mutation through a :class:`~repro.faults.FaultPlan`
instead — random stress included (:func:`repro.faults.random_stress`
builds one).

========  ============================================================
FLT001    Direct fault mutation: a ``set_link_up``/``set_link_params``
          /``set_params`` call, or an assignment to a ``latency_s``/
          ``bandwidth_bps``/``loss_rate``/``up`` attribute, in
          ``engine/`` or ``core/`` code outside the sanctioned
          applier. Declare the change as a FaultPlan event so every
          backend applies it at the same point in virtual time.
========  ============================================================

Scope: files whose path contains an ``engine`` or ``core`` component.
Exempt wholesale: ``core/faults.py`` (the sanctioned applier itself),
``core/emulator.py`` (owns the ``set_link_*`` primitives the applier
calls), and ``core/pipe.py`` (a pipe initializes and adjusts its own
parameters). Suppressions: ``# repro: allow-fault-mutation``.
"""

from __future__ import annotations

import ast
import os
from typing import Dict, List

from repro.check.model import ModuleModel, Violation, register_rules

RULES: Dict[str, tuple] = {
    "FLT001": (
        "fault-mutation",
        "link state mutated outside the sanctioned fault applier; "
        "declare the change as a FaultPlan event so every backend "
        "applies it at the same point in virtual time",
    ),
}

register_rules(RULES)

#: Path components that put a file in scope (the same closure the
#: KERN/DOM families guard: the engine and the emulation core).
FLT_PACKAGES = {"engine", "core"}

#: Sanctioned homes of link-state mechanics.
_EXEMPT_SUFFIXES = (
    os.path.join("core", "faults.py"),
    os.path.join("core", "emulator.py"),
    os.path.join("core", "pipe.py"),
)

#: Method calls that flip link state.
_MUTATOR_CALLS = {"set_link_up", "set_link_params", "set_params"}

#: Attribute assignments that flip link state.
_MUTATOR_ATTRS = {"latency_s", "bandwidth_bps", "loss_rate", "up"}


def in_scope(path: str) -> bool:
    normalized = os.path.normpath(path)
    parts = normalized.split(os.sep)
    if not FLT_PACKAGES.intersection(parts):
        return False
    return not normalized.endswith(_EXEMPT_SUFFIXES)


class _FaultVisitor:
    def __init__(self, model: ModuleModel):
        self.model = model
        self.violations: List[Violation] = []

    def _flag(self, node: ast.AST, detail: str) -> None:
        self.violations.append(
            Violation(
                "FLT001",
                self.model.path,
                node.lineno,
                node.col_offset + 1,
                f"{RULES['FLT001'][1]} [{detail}]",
            )
        )

    def check_function(self, fn: ast.AST) -> None:
        for node in ast.walk(fn):
            if isinstance(node, ast.Call):
                func = node.func
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr in _MUTATOR_CALLS
                ):
                    self._flag(node, f".{func.attr}() call")
            elif isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (
                    node.targets
                    if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for target in targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and target.attr in _MUTATOR_ATTRS
                        # self.<attr> = ... is an object initializing or
                        # adjusting its own field, not an outside
                        # mutation of link state.
                        and not (
                            isinstance(target.value, ast.Name)
                            and target.value.id == "self"
                        )
                    ):
                        self._flag(node, f".{target.attr} assignment")


def collect(model: ModuleModel) -> List[Violation]:
    """Raw FLT violations for one module (no suppression applied; the
    :func:`repro.check.model.check_paths` driver does that)."""
    if not in_scope(model.path):
        return []
    visitor = _FaultVisitor(model)
    for fn, _cls in model.functions:
        visitor.check_function(fn)
    return visitor.violations
