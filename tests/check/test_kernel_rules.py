"""Tests for the batch-kernel discipline rules (repro.check.kernel)."""

import os

from repro.check import kernel
from repro.check.kernel import in_scope
from repro.check.model import ModuleModel, check_paths

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def fixture(*parts: str) -> str:
    return os.path.join(FIXTURES, *parts)


def collect(source: str, path: str = "src/repro/core/x.py"):
    return kernel.collect(ModuleModel(source, path=path))


# ----------------------------------------------------------------------
# Seeded fixture trips exactly its rule
# ----------------------------------------------------------------------

def test_fixture_trips_kern001_twice():
    report = check_paths([fixture("core", "kern001_per_packet_event.py")])
    assert {v.rule for v in report.violations} == {"KERN001"}
    assert len(report.violations) == 2


def test_hardware_fixture_flags_a_descriptor_carrying_post():
    report = check_paths([fixture("hardware", "kern001_wire_post.py")])
    [violation] = report.violations
    assert violation.rule == "KERN001"
    assert ".post() payload references descriptor" in violation.message


# ----------------------------------------------------------------------
# Scope: engine/, core/ and hardware/, minus the sanctioned homes
# ----------------------------------------------------------------------

def test_scope():
    assert in_scope("src/repro/core/node.py")
    assert in_scope("src/repro/engine/parallel.py")
    assert in_scope("src/repro/hardware/links.py")
    assert not in_scope("src/repro/core/kernel.py")
    assert not in_scope("src/repro/engine/sync.py")
    assert not in_scope("src/repro/apps/netperf.py")


def test_out_of_scope_source_is_ignored():
    source = "def f(sim, descriptor):\n    sim.post(0.1, f, descriptor)\n"
    assert collect(source, path="src/repro/apps/x.py") == []
    assert collect(source, path="src/repro/core/kernel.py") == []
    assert collect(source, path="src/repro/core/x.py")


# ----------------------------------------------------------------------
# KERN001 shapes
# ----------------------------------------------------------------------

def test_every_scheduling_entry_point_with_descriptor_payload():
    source = (
        "def f(sim, descriptor):\n"
        "    sim.schedule(0.1, fire, descriptor)\n"
        "    sim.at(0.1, fire, descriptor)\n"
        "    sim.post(0.1, fire, descriptor)\n"
        "    sim.call_soon(fire, descriptor)\n"
    )
    assert [v.rule for v in collect(source)] == ["KERN001"] * 4


def test_heappush_of_descriptor_tuple():
    source = (
        "from heapq import heappush\n"
        "def f(heap, t, descriptor):\n"
        "    heappush(heap, (t, descriptor))\n"
    )
    [violation] = collect(source)
    assert violation.rule == "KERN001"
    assert "heappush" in violation.message


def test_qualified_heappush_and_packet_attribute():
    source = (
        "import heapq\n"
        "def f(heap, t, entry):\n"
        "    heapq.heappush(heap, (t, entry.packet))\n"
    )
    assert [v.rule for v in collect(source)] == ["KERN001"]


def test_lambda_payload_capturing_descriptor_is_flagged():
    source = (
        "def f(sim, descriptor, now):\n"
        "    sim.at(now, lambda: deliver(descriptor))\n"
    )
    assert [v.rule for v in collect(source)] == ["KERN001"]


def test_descriptorish_keyword_argument_is_flagged():
    source = (
        "def f(sim, pkt, now):\n"
        "    sim.post(now, fire, payload=pkt)\n"
    )
    assert [v.rule for v in collect(source)] == ["KERN001"]


# ----------------------------------------------------------------------
# Sanctioned shapes stay clean
# ----------------------------------------------------------------------

def test_pipe_heap_entries_and_admit_are_clean():
    source = (
        "from heapq import heappush\n"
        "def f(heap, deadline, tiebreak, pipe, descriptor, t0, t1):\n"
        "    heappush(heap, (deadline, tiebreak, pipe))\n"
        "    pipe._line.admit(descriptor, t0, t1)\n"
    )
    assert collect(source) == []


def test_descriptorless_scheduling_is_clean():
    source = (
        "def f(sim, now, wake):\n"
        "    sim.at(now + 0.001, wake)\n"
        "    sim.post(now, wake)\n"
    )
    assert collect(source) == []


def test_suppression_comment_silences_the_rule():
    source = (
        "def f(sim, descriptor, now):\n"
        "    sim.at(now, trace, descriptor)"
        "  # repro: allow-per-packet-event\n"
    )
    report = check_paths(
        [_write_tmp(source)], select=["KERN"]
    )
    assert report.violations == []


def _write_tmp(source: str) -> str:
    import tempfile

    directory = tempfile.mkdtemp()
    scoped = os.path.join(directory, "core")
    os.makedirs(scoped, exist_ok=True)
    path = os.path.join(scoped, "snippet.py")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(source)
    return path


# ----------------------------------------------------------------------
# The live tree holds the invariant
# ----------------------------------------------------------------------

def test_live_core_and_engine_are_kern_clean():
    src = os.path.join(
        os.path.dirname(__file__), os.pardir, os.pardir, "src", "repro"
    )
    report = check_paths(
        [os.path.join(src, part) for part in ("core", "engine", "hardware")],
        select=["KERN"],
    )
    assert report.violations == []
