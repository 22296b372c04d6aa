"""Tests for the cross-domain safety rules (repro.check.domains)."""

import os

import pytest

from repro.check.domains import in_scope
from repro.check.model import ModuleModel, check_paths
from repro.check import domains

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def fixture(*parts: str) -> str:
    return os.path.join(FIXTURES, *parts)


def collect(source: str, path: str = "src/repro/engine/x.py"):
    return domains.collect(ModuleModel(source, path=path))


# ----------------------------------------------------------------------
# Seeded fixtures trip exactly their rule
# ----------------------------------------------------------------------

SEEDED = [
    (fixture("engine", "dom001_cross_post.py"), "DOM001", 1),
    (fixture("engine", "dom002_foreign_state.py"), "DOM002", 1),
    (fixture("engine", "dom003_unrouted_call.py"), "DOM003", 1),
    (fixture("engine", "epo001_clock_peek.py"), "EPO001", 1),
    (fixture("engine", "epo002_sublookahead.py"), "EPO002", 3),
]


@pytest.mark.parametrize("path,rule,count", SEEDED)
def test_fixture_trips_its_rule(path, rule, count):
    report = check_paths([path])
    assert report.violations, f"{path} produced no violations"
    assert {v.rule for v in report.violations} == {rule}
    assert len(report.violations) == count


def test_clean_partitioned_fixture_passes():
    report = check_paths([fixture("engine", "clean_partitioned.py")])
    assert report.violations == []
    assert report.warnings == []


# ----------------------------------------------------------------------
# Scope: engine/ and core/ only; engine/sync.py is the sanctioned home
# ----------------------------------------------------------------------

def test_scope():
    assert in_scope("src/repro/engine/parallel.py")
    assert in_scope("src/repro/core/node.py")
    assert not in_scope("src/repro/engine/sync.py")
    assert not in_scope("src/repro/apps/netperf.py")
    assert not in_scope("src/repro/tools/cli.py")


def test_out_of_scope_source_is_ignored():
    source = "def f(sim, t):\n    sim.domains[0]._now = t\n"
    assert collect(source, path="src/repro/tools/x.py") == []
    assert collect(source, path="src/repro/engine/sync.py") == []
    assert collect(source, path="src/repro/engine/x.py")


# ----------------------------------------------------------------------
# DOM001: cross-domain scheduling
# ----------------------------------------------------------------------

def test_dom001_all_kernel_entry_points():
    source = (
        "def f(sim, fn):\n"
        "    sim.domains[1].schedule(0.1, fn)\n"
        "    sim.domains[1].at(0.1, fn)\n"
        "    sim.domains[1].post(0.1, fn)\n"
        "    sim.domains[1].call_soon(fn)\n"
    )
    assert [v.rule for v in collect(source)] == ["DOM001"] * 4


def test_dom001_via_alias():
    source = (
        "def f(sim, fn):\n"
        "    d = sim.domains[2]\n"
        "    d.post(0.1, fn)\n"
    )
    assert [v.rule for v in collect(source)] == ["DOM001"]


def test_own_kernel_via_bound_attribute_is_fine():
    source = (
        "class Node:\n"
        "    def f(self, fn):\n"
        "        self.sim.post(0.1, fn)\n"
        "        self.sim.schedule(0.1, fn)\n"
    )
    assert collect(source) == []


def test_non_scheduling_domain_calls_are_fine():
    source = (
        "def f(sim, owned):\n"
        "    return {d: sim.domains[d].next_event_time() for d in owned}\n"
    )
    assert collect(source) == []


# ----------------------------------------------------------------------
# DOM002: cross-domain state writes
# ----------------------------------------------------------------------

def test_dom002_subscript_and_augassign():
    source = (
        "def f(sim, t):\n"
        "    sim.domains[0]._now = t\n"
        "    sim.domains[0]._dispatched += 1\n"
    )
    assert [v.rule for v in collect(source)] == ["DOM002"] * 2


def test_dom002_method_call_on_a_domain_is_not_a_write():
    source = (
        "def f(sim, d, until):\n"
        "    sim.domains[d].fast_forward(until)\n"
    )
    assert collect(source) == []


def test_dom002_core_stat_patching_is_not_domain_state():
    # DOM002 is scoped to domain kernels, whose clock/heap feed the
    # digests; attribute writes on cores/hosts are not its business.
    source = (
        "def f(emulation, fields):\n"
        "    core = emulation.cores[0]\n"
        "    core.cpu_busy_s = fields['busy']\n"
    )
    assert collect(source) == []


# ----------------------------------------------------------------------
# DOM003: unrouted peer calls
# ----------------------------------------------------------------------

def test_dom003_unguarded_peer_call():
    source = (
        "def f(emulation, pipe):\n"
        "    emulation.cores[3].scheduler.notify(pipe)\n"
    )
    assert [v.rule for v in collect(source, "src/repro/core/x.py")] == ["DOM003"]


def test_dom003_guard_reference_clears_the_function():
    source = (
        "def f(emulation, router, index, packet):\n"
        "    domain_of_core = emulation._domain_of_core\n"
        "    core = emulation.cores[index]\n"
        "    if domain_of_core[index] == 0:\n"
        "        core.ingress_packet(packet)\n"
    )
    assert collect(source, "src/repro/core/x.py") == []


def test_dom003_host_tables_too():
    source = (
        "def f(emulation, data):\n"
        "    for host in emulation.hosts:\n"
        "        host.deliver(data)\n"
    )
    assert [v.rule for v in collect(source, "src/repro/core/x.py")] == ["DOM003"]


# ----------------------------------------------------------------------
# EPO001: foreign clock/heap reads
# ----------------------------------------------------------------------

def test_epo001_clock_and_heap_attrs():
    source = (
        "def f(sim, d):\n"
        "    a = sim.domains[d]._now\n"
        "    b = sim.domains[d].now\n"
        "    c = len(sim.domains[d]._heap)\n"
        "    return a, b, c\n"
    )
    assert [v.rule for v in collect(source)] == ["EPO001"] * 3


def test_epo001_own_clock_is_fine():
    source = (
        "class Node:\n"
        "    def f(self):\n"
        "        return self.sim.now + self.sim._now\n"
    )
    assert collect(source) == []


# ----------------------------------------------------------------------
# EPO002: sends below the sync horizon
# ----------------------------------------------------------------------

def test_epo002_bare_now_and_small_offsets():
    source = (
        "def f(router, now, p):\n"
        "    router.send(now, 0, 1, 'deliver', 0, p)\n"
        "    router.send(now + 1e-6, 0, 1, 'deliver', 0, p)\n"
    )
    assert [v.rule for v in collect(source)] == ["EPO002"] * 2


def test_epo002_delivery_time_and_large_offsets_pass():
    source = (
        "def f(router, channel, now, p):\n"
        "    router.send(channel.delivery_time(now, 64), 0, 1, 'deliver', 0, p)\n"
        "    router.send(now + 0.001, 0, 1, 'deliver', 0, p)\n"
    )
    assert collect(source) == []


def test_epo002_module_constant_offset_is_folded():
    source = (
        "DELAY = 5e-6\n"
        "def f(router, now, p):\n"
        "    router.send(now + DELAY, 0, 1, 'deliver', 0, p)\n"
    )
    assert [v.rule for v in collect(source)] == ["EPO002"]


def test_epo002_non_router_sends_are_ignored():
    source = (
        "def f(conn, now):\n"
        "    conn.send(now)\n"
    )
    assert collect(source) == []


def test_epo002_handoff_time_is_sanctioned():
    source = (
        "def f(router, channel, now, p):\n"
        "    router.send(channel.handoff_time(now), 0, 1, 'deliver', 0, p)\n"
    )
    assert collect(source) == []


def test_epo002_min_fold_bounded_by_smallest_foldable_arg():
    # min() is provably <= its smallest constant argument, so the send
    # is below the horizon even though the other argument is opaque.
    source = (
        "def f(router, now, bound, p):\n"
        "    router.send(now + min(1e-6, bound), 0, 1, 'deliver', 0, p)\n"
    )
    assert [v.rule for v in collect(source)] == ["EPO002"]


def test_epo002_max_fold_needs_every_arg_to_fold():
    # max() with an opaque argument has no provable upper bound; a
    # fully foldable max() below the floor still trips.
    source = (
        "def f(router, now, bound, p):\n"
        "    router.send(now + max(1e-6, bound), 0, 1, 'deliver', 0, p)\n"
        "    router.send(now + max(1e-6, 2e-6), 0, 1, 'deliver', 0, p)\n"
    )
    violations = collect(source)
    assert [v.rule for v in violations] == ["EPO002"]
    assert violations[0].line == 3
