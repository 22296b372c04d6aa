"""Cross-domain safety rules (DOM) and epoch-discipline rules (EPO).

The partitioned engine's scalability argument (DESIGN.md §8, and the
paper's conservative-synchronization discipline) rests on two
invariants that no runtime check can attribute to a line of code:

1. **Isolation** — cross-domain effects travel only through
   :meth:`~repro.engine.sync.DomainRouter.send`. Code in ``engine/``
   or ``core/`` that schedules onto, reads the clock of, or mutates
   the state of a domain object it does not own silently breaks
   digest invariance across worker counts; the runtime sanitizer sees
   the divergence but not the culprit.
2. **Causality** — a cross-domain message sent at virtual time ``t``
   must not arrive before ``t + lookahead``, the minimum cross-core
   latency from :mod:`repro.hardware.calibration`. An event posted
   below that horizon can land inside an epoch another domain has
   already dispatched past.

These rules prove both properties up front, over the conservative
ownership model of :mod:`repro.check.model` (table subscripts and
their aliases are *potentially foreign*; bound attributes like
``self.sim`` are one's own):

========  ============================================================
DOM001    ``.schedule`` / ``.at`` / ``.post`` / ``.call_soon`` invoked
          on another domain's kernel (``sim.domains[i].post(...)``).
          Cross-domain work must go through ``DomainRouter.send``.
DOM002    Attribute write on another domain's kernel
          (``sim.domains[i]._now = t``, or via an alias). Barrier-side
          executors use the sanctioned facade
          (:meth:`~repro.engine.sync.PartitionedSimulator.fast_forward`)
          or carry an explicit allow.
DOM003    Method call on a peer core/host fetched from an ownership
          table (``emulation.cores[i].physical_ingress(...)``) in a
          function with no domain guard (no ``_domain_of_core`` /
          ``domain_id`` / ``router`` reference): under partitioning
          this injects work into a foreign heap directly.
EPO001    Read of another domain's clock or heap internals
          (``sim.domains[i]._now`` / ``.now`` / ``._heap`` /
          ``._seq``) — only the epoch barrier may compare clocks
          across domains.
EPO002    ``router.send`` whose delivery time is provably below the
          pairwise sync horizon: a bare ``now``, a constant offset
          smaller than ``min_cross_core_latency`` (the floor of every
          lookahead-matrix entry), or a ``min()``/``max()`` fold that
          bounds the time below the floor. Delivery times must come
          from :meth:`~repro.engine.sync.DomainChannel.delivery_time`
          or :meth:`~repro.engine.sync.DomainChannel.handoff_time`
          (whose latency is never below the floor) or add at least
          the lookahead.
========  ============================================================

Scope: files whose path contains an ``engine`` or ``core`` component.
``engine/sync.py`` — the router, the epoch barrier, and the
:class:`~repro.engine.sync.PartitionedSimulator` facade — is the one
sanctioned home of cross-domain mechanics and is exempt wholesale.
Suppressions: ``# repro: allow-<tag>`` per rule, as everywhere in
:mod:`repro.check`.
"""

from __future__ import annotations

import ast
import os
from typing import Dict, List, Optional, Set

from repro.check.model import (
    ModuleModel,
    Violation,
    attr_chain,
    register_rules,
)

RULES: Dict[str, tuple] = {
    "DOM001": (
        "cross-domain-schedule",
        "scheduling onto another domain's kernel; route the work "
        "through DomainRouter.send",
    ),
    "DOM002": (
        "cross-domain-state",
        "attribute write on another domain's kernel; use the barrier "
        "facade (fast_forward) or DomainRouter.send",
    ),
    "DOM003": (
        "unrouted-peer-call",
        "direct call into a peer core/host with no domain guard; "
        "check _domain_of_core/_domain_of_host and use "
        "DomainRouter.send for the foreign case",
    ),
    "EPO001": (
        "cross-domain-clock",
        "read of another domain's clock/heap outside the epoch "
        "barrier; only the synchronizer may compare clocks",
    ),
    "EPO002": (
        "sub-lookahead",
        "cross-domain send below the pairwise sync horizon; derive "
        "the delivery time from DomainChannel.delivery_time or "
        ".handoff_time (never below the channel floor)",
    ),
}

register_rules(RULES)

#: Path components that put a file in scope.
DOM_PACKAGES = {"engine", "core"}

#: The sanctioned home of cross-domain mechanics.
ROUTER_HOME = os.path.join("engine", "sync.py")

#: Kernel scheduling entry points (DOM001).
_SCHED_METHODS = {"schedule", "at", "post", "call_soon"}

#: Clock/heap internals another domain must never read (EPO001).
_CLOCK_ATTRS = {"now", "_now", "_heap", "_seq"}

#: Identifiers whose presence marks a function as domain-aware: it
#: either consults the ownership directory or holds the router, so its
#: peer-object calls are the guarded local-case branch (DOM003).
_GUARD_NAMES = {
    "_domain_of_core", "domain_of_core", "_domain_of_host",
    "domain_of_host", "domain_id", "router", "_router", "domain_of_vn",
}


def _fallback_lookahead() -> float:
    try:
        from repro.hardware.calibration import DEFAULT_CORE_SPEC
        return DEFAULT_CORE_SPEC.switch_latency_s
    except Exception:  # pragma: no cover - calibration always importable
        return 20e-6


def in_scope(path: str) -> bool:
    parts = os.path.normpath(path).split(os.sep)
    if not DOM_PACKAGES.intersection(parts):
        return False
    return not os.path.normpath(path).endswith(ROUTER_HOME)


def _identifiers(fn: ast.AST) -> Set[str]:
    """Every Name id and attribute name appearing in ``fn``."""
    found: Set[str] = set()
    for node in ast.walk(fn):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
    return found


def _attr_base(expr: ast.expr) -> ast.expr:
    """Strip trailing attribute accesses: base of ``a.b.c`` is ``a``,
    base of ``x[i].b.c`` is ``x[i]``."""
    while isinstance(expr, ast.Attribute):
        expr = expr.value
    return expr


class _DomainVisitor:
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

    def check_function(self, fn: ast.AST) -> None:
        model = self.model
        aliases = model.aliases(fn)
        guarded = bool(_GUARD_NAMES & _identifiers(fn))
        for node in ast.walk(fn):
            if isinstance(node, ast.Call):
                self._check_call(node, aliases, guarded)
            elif isinstance(node, (ast.Assign, ast.AugAssign)):
                self._check_store(node, aliases)
            elif isinstance(node, ast.Attribute) and isinstance(
                node.ctx, ast.Load
            ):
                self._check_clock_read(node, aliases)

    # -- DOM001 / DOM003 / EPO002 ---------------------------------------

    def _check_call(
        self, node: ast.Call, aliases: Dict[str, str], guarded: bool
    ) -> None:
        func = node.func
        if not isinstance(func, ast.Attribute):
            return
        base = _attr_base(func.value)
        kind = self.model.owned_kind(base, aliases)
        if kind == "domain" and func.attr in _SCHED_METHODS:
            self._flag("DOM001", node, f".{func.attr}() on a foreign domain")
        elif kind in ("core", "host") and not guarded:
            self._flag(
                "DOM003", node,
                f".{func.attr}() on a table-fetched {kind} in an "
                f"unguarded function",
            )
        if func.attr == "send":
            chain = attr_chain(func)
            if chain and any("router" in part for part in chain[:-1]):
                self._check_send_horizon(node)

    #: DomainChannel methods whose results satisfy the horizon by
    #: construction (their latency is validated >= the floor).
    _SANCTIONED_TIME_FNS = ("delivery_time", "handoff_time")

    @staticmethod
    def _is_fold_call(expr: ast.AST) -> bool:
        return (
            isinstance(expr, ast.Call)
            and isinstance(expr.func, ast.Name)
            and expr.func.id in ("min", "max")
        )

    def _fold_bound(self, expr: ast.expr) -> Optional[float]:
        """Provable upper bound of a time expression, when one exists:
        numeric constants, ``a + b`` of foldable parts, and
        ``min()``/``max()`` folds. A ``min()`` is bounded by its
        smallest foldable argument even when other arguments are
        opaque; a ``max()`` only when every argument folds."""
        value = self.model.const_number(expr)
        if value is not None:
            return value
        if isinstance(expr, ast.BinOp) and isinstance(expr.op, ast.Add):
            left = self._fold_bound(expr.left)
            right = self._fold_bound(expr.right)
            if left is not None and right is not None:
                return left + right
            return None
        if self._is_fold_call(expr) and expr.args:
            bounds = [self._fold_bound(arg) for arg in expr.args]
            folded = [bound for bound in bounds if bound is not None]
            if not folded:
                return None
            if expr.func.id == "min":
                return min(folded)
            if len(folded) == len(bounds):
                return max(folded)
        return None

    def _check_send_horizon(self, node: ast.Call) -> None:
        if not node.args:
            return
        time_arg = node.args[0]
        # The sanctioned shapes: DomainChannel.delivery_time(...) /
        # .handoff_time(...) calls (latency validated >= the floor of
        # every lookahead-matrix entry at runtime).
        if isinstance(time_arg, ast.Call) and not self._is_fold_call(time_arg):
            chain = attr_chain(time_arg.func)
            if chain and chain[-1] in self._SANCTIONED_TIME_FNS:
                return
            return  # other computed times: not statically provable
        lookahead = _fallback_lookahead()
        # `now + C`: fold the additive offset and bound it.
        if isinstance(time_arg, ast.BinOp) and isinstance(time_arg.op, ast.Add):
            for operand in (time_arg.right, time_arg.left):
                offset = self._fold_bound(operand)
                if offset is not None and offset < lookahead:
                    self._flag(
                        "EPO002", node,
                        f"delay {offset:g}s < pairwise horizon floor "
                        f"{lookahead:g}s",
                    )
                    return
            return
        # A bare clock read (`now`, `self.sim._now`) is a zero delay.
        chain = attr_chain(time_arg)
        if chain and chain[-1] in ("now", "_now"):
            self._flag("EPO002", node, "zero-delay send (bare clock value)")
            return
        value = self._fold_bound(time_arg)
        if value is not None and value < lookahead:
            self._flag(
                "EPO002", node,
                f"constant time {value:g}s < pairwise horizon floor "
                f"{lookahead:g}s",
            )

    # -- DOM002 ----------------------------------------------------------

    def _check_store(self, node, aliases: Dict[str, str]) -> None:
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        for target in targets:
            if not isinstance(target, ast.Attribute):
                continue
            base = _attr_base(target.value)
            if self.model.owned_kind(base, aliases) == "domain":
                self._flag("DOM002", node, f"write to .{target.attr}")

    # -- EPO001 ----------------------------------------------------------

    def _check_clock_read(self, node: ast.Attribute, aliases) -> None:
        if node.attr not in _CLOCK_ATTRS:
            return
        if self.model.owned_kind(node.value, aliases) == "domain":
            self._flag("EPO001", node, f"read of .{node.attr}")


def collect(model: ModuleModel) -> List[Violation]:
    """Raw DOM/EPO violations for one module (no suppression applied;
    the :func:`repro.check.model.check_paths` driver does that)."""
    if not in_scope(model.path):
        return []
    visitor = _DomainVisitor(model)
    for fn, _cls in model.functions:
        visitor.check_function(fn)
    return visitor.violations
