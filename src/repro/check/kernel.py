"""Batch-departure discipline rules (KERN).

The pipe delay line (DESIGN.md §7, :mod:`repro.core.kernel`) gets its
throughput from one structural invariant: **per-packet departures
never become heap events**. A packet descriptor entering a pipe is
admitted into the pipe's delay line
(:meth:`~repro.core.kernel.DelayLine.admit`); the scheduler's
heap holds one entry per *pipe* deadline, and
:meth:`~repro.core.scheduler.PipeScheduler.collect` drains whole runs
of due departures per pipe per tick. Code that schedules an individual
descriptor's departure directly — a ``heapq.heappush`` of a
descriptor-carrying entry, or a kernel ``post``/``at``/``schedule``/
``call_soon`` whose payload references a descriptor — reintroduces the
one-event-per-packet regime the delay line exists to remove. It also
silently bypasses the digest contract: batched departures dispatch no
heap events, so a stray per-packet event changes the event stream's
sequence numbering and breaks digest identity across backends.

========  ============================================================
KERN001   Per-packet departure event: a ``heappush`` or kernel
          scheduling call (``.post``/``.at``/``.schedule``/
          ``.call_soon``) in ``core/``, ``engine/`` or ``hardware/``
          whose arguments reference a packet descriptor. Admit the
          descriptor into the pipe's delay line (``Pipe`` →
          ``DelayLine.admit``) and let ``PipeScheduler.collect``
          batch the departures instead.
========  ============================================================

Scope: files whose path contains an ``engine``, ``core`` or
``hardware`` component (the physical links schedule one delivery per
wire send and nothing else per packet).
Exempt wholesale: ``core/kernel.py`` (the delay line itself)
and ``engine/sync.py`` (the router legitimately ships descriptors
across domain boundaries as routed messages, which is handoff, not
scheduling). Suppressions: ``# repro: allow-per-packet-event``.
"""

from __future__ import annotations

import ast
import os
from typing import Dict, List, Set

from repro.check.model import ModuleModel, Violation, register_rules

RULES: Dict[str, tuple] = {
    "KERN001": (
        "per-packet-event",
        "per-packet departure scheduled as a heap event, bypassing the "
        "batch kernel; admit the descriptor into the pipe's delay line "
        "and let PipeScheduler.collect batch it",
    ),
}

register_rules(RULES)

#: Path components that put a file in scope: the engine, the
#: emulation core and the physical substrate.
KERN_PACKAGES = {"engine", "core", "hardware"}

#: Sanctioned homes of descriptor-carrying mechanics.
KERNEL_HOME = os.path.join("core", "kernel.py")
ROUTER_HOME = os.path.join("engine", "sync.py")

#: Kernel scheduling entry points (mirrors the DOM001 set).
_SCHED_METHODS = {"schedule", "at", "post", "call_soon"}

#: Exact identifiers that name a packet descriptor.
_DESCRIPTOR_NAMES = {"pkt", "desc"}

#: Substrings that mark an identifier as descriptor-ish.
_DESCRIPTOR_MARKS = ("descriptor", "packet")


def in_scope(path: str) -> bool:
    normalized = os.path.normpath(path)
    parts = normalized.split(os.sep)
    if not KERN_PACKAGES.intersection(parts):
        return False
    return not (
        normalized.endswith(KERNEL_HOME) or normalized.endswith(ROUTER_HOME)
    )


def _is_descriptorish(name: str) -> bool:
    lowered = name.lower()
    if lowered in _DESCRIPTOR_NAMES:
        return True
    return any(mark in lowered for mark in _DESCRIPTOR_MARKS)


def _descriptor_refs(args) -> Set[str]:
    """Descriptor-ish identifiers referenced anywhere in ``args`` —
    positionally, in keywords, or captured inside a lambda payload."""
    found: Set[str] = set()
    for arg in args:
        for node in ast.walk(arg):
            if isinstance(node, ast.Name) and _is_descriptorish(node.id):
                found.add(node.id)
            elif isinstance(node, ast.Attribute) and _is_descriptorish(
                node.attr
            ):
                found.add(node.attr)
    return found


class _KernelVisitor:
    def __init__(self, model: ModuleModel):
        self.model = model
        self.violations: List[Violation] = []

    def _flag(self, node: ast.AST, detail: str) -> None:
        self.violations.append(
            Violation(
                "KERN001",
                self.model.path,
                node.lineno,
                node.col_offset + 1,
                f"{RULES['KERN001'][1]} [{detail}]",
            )
        )

    def check_function(self, fn: ast.AST) -> None:
        for node in ast.walk(fn):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name):
                callee = func.id
            elif isinstance(func, ast.Attribute):
                callee = func.attr
            else:
                continue
            payload = list(node.args) + [kw.value for kw in node.keywords]
            if callee == "heappush":
                refs = _descriptor_refs(payload)
                if refs:
                    self._flag(
                        node,
                        f"heappush of {'/'.join(sorted(refs))}",
                    )
            elif (
                isinstance(func, ast.Attribute) and callee in _SCHED_METHODS
            ):
                refs = _descriptor_refs(payload)
                if refs:
                    self._flag(
                        node,
                        f".{callee}() payload references "
                        f"{'/'.join(sorted(refs))}",
                    )


def collect(model: ModuleModel) -> List[Violation]:
    """Raw KERN violations for one module (no suppression applied; the
    :func:`repro.check.model.check_paths` driver does that)."""
    if not in_scope(model.path):
        return []
    visitor = _KernelVisitor(model)
    for fn, _cls in model.functions:
        visitor.check_function(fn)
    return visitor.violations
