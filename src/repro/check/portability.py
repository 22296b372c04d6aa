"""Spec-portability rules (PORT): what may cross a process boundary.

The multiprocess backend and the resilience layer rebuild workers from
two picklable currencies — :class:`~repro.api.ScenarioSpec` (the full
scenario, for spawn/respawn) and cross-domain mail, for epoch
injection. Mail crosses the process boundary as the flat field tuples
of :func:`~repro.engine.parallel.encode_message` (message, packet and
descriptor headers, transport segment fields); the only objects it
pickles are what a segment carries for the application (TCP
``messages`` and ``sack_blocks``, a UDP ``payload``) or a segment of
an unknown type. Anything that rides either channel but cannot be
pickled — a lambda, a nested closure, a bound method — works under
``fork`` by accident and dies under ``spawn`` or on the first worker
respawn. These rules keep the currencies honest statically:

========  ============================================================
PORT001   A lambda or nested-function reference passed into a
          ``DomainMessage(...)`` constructor or a ``router.send(...)``
          call: closures cannot cross the pipe, and ``encode_message``
          passes a segment's payload objects through as they are.
          Encode behavior as a ``(kind, target)`` pair and resolve it
          worker-side (``decode_message`` rebuilds packets and
          descriptors against the receiving worker's own pipes).
PORT002   ``Process(target=...)`` whose target is a lambda, a nested
          function, or a ``self.``-bound method: unpicklable under the
          spawn start method, so the backend silently stops being
          portable. Targets must be module-level functions.
PORT003   A class with a ``to_spec``/``from_spec`` pair assigns a
          persistent ``self._field`` in ``__init__`` that ``to_spec``
          never reads: the field silently fails to round-trip, so a
          respawned worker rebuilds a *different* scenario. Runtime-
          only state carries ``# repro: allow-spec-drift`` with a
          why-comment.
========  ============================================================

Scope: PORT001/PORT002 apply to files with an ``engine``, ``core`` or
``resilience`` path component (where the process boundary lives);
PORT003 applies wherever a ``to_spec``/``from_spec`` pair is defined.
"""

from __future__ import annotations

import ast
import os
from typing import Dict, List, Optional, Set, Tuple

from repro.check.model import (
    ModuleModel,
    Violation,
    attr_chain,
    register_rules,
)

RULES: Dict[str, tuple] = {
    "PORT001": (
        "closure-payload",
        "closure or nested function in a cross-domain payload; encode "
        "behavior as picklable (kind, target) data instead",
    ),
    "PORT002": (
        "process-target",
        "Process target is not a module-level function; it cannot be "
        "pickled under the spawn start method",
    ),
    "PORT003": (
        "spec-drift",
        "field assigned in __init__ but never read by to_spec; it "
        "will not survive a spec round-trip (worker respawn/resume)",
    ),
}

register_rules(RULES)

#: Path components where the process boundary lives (PORT001/PORT002).
PORT_PACKAGES = {"engine", "core", "resilience"}


def in_boundary_scope(path: str) -> bool:
    parts = os.path.normpath(path).split(os.sep)
    return bool(PORT_PACKAGES.intersection(parts))


class _PortVisitor:
    def __init__(self, model: ModuleModel):
        self.model = model
        self.violations: List[Violation] = []

    def _flag(self, rule: str, node: ast.AST, detail: str = "") -> None:
        message = RULES[rule][1]
        if detail:
            message = f"{message} [{detail}]"
        self.violations.append(
            Violation(
                rule, self.model.path, node.lineno, node.col_offset + 1, message
            )
        )

    # -- PORT001 / PORT002 -----------------------------------------------

    def check_function(self, fn: ast.AST) -> None:
        nested = self.model.nested_functions(fn)
        for node in ast.walk(fn):
            if not isinstance(node, ast.Call):
                continue
            if self._is_payload_call(node):
                self._check_payload(node, nested)
            if self._is_process_ctor(node):
                self._check_target(node, nested)

    @staticmethod
    def _is_payload_call(node: ast.Call) -> bool:
        func = node.func
        if isinstance(func, ast.Name):
            return func.id == "DomainMessage"
        chain = attr_chain(func)
        if not chain:
            return False
        if chain[-1] == "DomainMessage":
            return True
        return chain[-1] == "send" and any(
            "router" in part for part in chain[:-1]
        )

    @staticmethod
    def _is_process_ctor(node: ast.Call) -> bool:
        func = node.func
        if isinstance(func, ast.Name):
            return func.id == "Process"
        chain = attr_chain(func)
        return bool(chain) and chain[-1] == "Process"

    def _check_payload(self, node: ast.Call, nested: Set[str]) -> None:
        values = list(node.args) + [kw.value for kw in node.keywords]
        for value in values:
            for sub in ast.walk(value):
                if isinstance(sub, ast.Lambda):
                    self._flag("PORT001", sub, "lambda in payload")
                elif isinstance(sub, ast.Name) and sub.id in nested:
                    self._flag(
                        "PORT001", sub,
                        f"nested function {sub.id!r} in payload",
                    )

    def _check_target(self, node: ast.Call, nested: Set[str]) -> None:
        target: Optional[ast.expr] = None
        for keyword in node.keywords:
            if keyword.arg == "target":
                target = keyword.value
        if target is None:
            return
        if isinstance(target, ast.Lambda):
            self._flag("PORT002", target, "lambda target")
        elif isinstance(target, ast.Name):
            if target.id in nested:
                self._flag(
                    "PORT002", target,
                    f"nested function {target.id!r} as target",
                )
        elif isinstance(target, ast.Attribute):
            chain = attr_chain(target)
            if chain and chain[0] == "self":
                self._flag(
                    "PORT002", target,
                    f"bound method {'.'.join(chain)!r} as target",
                )


# ----------------------------------------------------------------------
# PORT003: spec round-trip drift
# ----------------------------------------------------------------------


def _self_calls(fn: ast.AST, methods: Dict[str, ast.AST]) -> Set[str]:
    """Same-class methods ``fn`` calls (``self.m(...)``), plus
    ``__init__`` when it constructs its own class (``cls(...)``)."""
    called: Set[str] = set()
    for node in ast.walk(fn):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        chain = attr_chain(func)
        if chain and len(chain) == 2 and chain[0] in ("self", "cls") \
                and chain[1] in methods:
            called.add(chain[1])
        elif isinstance(func, ast.Name) and func.id == "cls":
            called.add("__init__")
    return called


def _transitive_bodies(
    seeds: List[str], methods: Dict[str, ast.AST]
) -> List[ast.AST]:
    """Fixpoint expansion of ``seeds`` through same-class calls."""
    todo = [name for name in seeds if name in methods]
    seen: Set[str] = set()
    bodies: List[ast.AST] = []
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        fn = methods[name]
        bodies.append(fn)
        todo.extend(_self_calls(fn, methods))
    return bodies


def _init_fields(bodies: List[ast.AST]) -> Dict[str, ast.AST]:
    """Underscore-prefixed ``self._x`` assignments (field -> first
    assignment node, for the violation anchor)."""
    fields: Dict[str, ast.AST] = {}
    for body in bodies:
        for node in ast.walk(body):
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign):
                targets = [node.target]
            else:
                continue
            for target in targets:
                chain = attr_chain(target) if isinstance(
                    target, ast.Attribute
                ) else None
                if (
                    chain
                    and len(chain) == 2
                    and chain[0] == "self"
                    and chain[1].startswith("_")
                    and not chain[1].startswith("__")
                ):
                    fields.setdefault(chain[1], node)
    return fields


def _referenced_fields(bodies: List[ast.AST]) -> Set[str]:
    found: Set[str] = set()
    for body in bodies:
        for node in ast.walk(body):
            if isinstance(node, ast.Attribute):
                chain = attr_chain(node)
                if chain and chain[0] in ("self", "scenario", "obj") \
                        and len(chain) >= 2:
                    found.add(chain[1])
    return found


def _check_spec_drift(model: ModuleModel) -> List[Violation]:
    violations: List[Violation] = []
    for cls_name, cls in model.classes.items():
        methods = model.methods_of(cls)
        if "to_spec" not in methods or "from_spec" not in methods:
            continue
        if "__init__" not in methods:
            continue
        init_bodies = _transitive_bodies(["__init__"], methods)
        persistent = _init_fields(init_bodies)
        spec_bodies = _transitive_bodies(["to_spec"], methods)
        covered = _referenced_fields(spec_bodies)
        for field, node in sorted(persistent.items()):
            if field in covered:
                continue
            violations.append(
                Violation(
                    "PORT003",
                    model.path,
                    node.lineno,
                    node.col_offset + 1,
                    f"{RULES['PORT003'][1]} "
                    f"[{cls_name}.{field} not read by to_spec]",
                )
            )
    return violations


def collect(model: ModuleModel) -> List[Violation]:
    """Raw PORT violations for one module (suppression is applied by
    the :func:`repro.check.model.check_paths` driver)."""
    violations: List[Violation] = []
    if in_boundary_scope(model.path):
        visitor = _PortVisitor(model)
        for fn, _cls in model.functions:
            visitor.check_function(fn)
        violations.extend(visitor.violations)
    violations.extend(_check_spec_drift(model))
    return violations
