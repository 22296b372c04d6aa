"""Tests for the ACDC-style adaptive overlay."""

import random

import pytest

from repro.apps import AcdcOverlay
from repro.core import EmulationConfig, ExperimentPipeline, FaultApplier
from repro.engine import Simulator
from repro.faults import FaultPlan, Perturbation
from repro.topology import TransitStubSpec, transit_stub_topology


def build_overlay(members=12, delay_target=0.5, seed=2):
    spec = TransitStubSpec(
        transit_nodes_per_domain=4,
        stub_domains_per_transit_node=2,
        stub_nodes_per_domain=3,
    )
    topology = transit_stub_topology(spec, random.Random(seed))
    sim = Simulator()
    emulation = (
        ExperimentPipeline(sim)
        .create(topology)
        .run(EmulationConfig.reference())
    )
    member_vns = list(range(members))
    overlay = AcdcOverlay(emulation, member_vns, delay_target_s=delay_target)
    return sim, emulation, overlay


def test_initial_tree_is_connected():
    sim, emulation, overlay = build_overlay()
    for vn, member in overlay.members.items():
        if vn == overlay.root_vn:
            assert member.parent is None
        else:
            assert member.parent is not None
            # Walking parents reaches the root.
            cursor, steps = member, 0
            while cursor.parent is not None and steps < 100:
                cursor = overlay.members[cursor.parent]
                steps += 1
            assert cursor.vn_id == overlay.root_vn


def test_tree_cost_at_least_mst():
    sim, emulation, overlay = build_overlay()
    assert overlay.tree_cost() >= overlay.mst_cost() - 1e-9


def test_adaptation_reduces_cost():
    sim, emulation, overlay = build_overlay(delay_target=2.0)
    initial_ratio = overlay.tree_cost() / overlay.mst_cost()
    overlay.start()
    sim.run(until=120.0)
    overlay.stop()
    final_ratio = overlay.tree_cost() / overlay.mst_cost()
    assert final_ratio < initial_ratio
    assert final_ratio < 1.8
    switches = sum(m.parent_switches for m in overlay.members.values())
    assert switches > 0


def test_tree_stays_loop_free_under_adaptation():
    sim, emulation, overlay = build_overlay(delay_target=2.0)
    overlay.start()
    sim.run(until=60.0)
    overlay.stop()
    for vn, member in overlay.members.items():
        seen = set()
        cursor = member
        while cursor.parent is not None:
            assert cursor.vn_id not in seen, "parent cycle detected"
            seen.add(cursor.vn_id)
            cursor = overlay.members[cursor.parent]
        assert cursor.vn_id == overlay.root_vn


def test_delay_violation_triggers_reparenting():
    sim, emulation, overlay = build_overlay(delay_target=0.2)
    overlay.start()
    sim.run(until=60.0)
    baseline = overlay.actual_max_delay()

    perturbation = Perturbation(
        start_s=60.0, stop_s=120.0, period_s=5.0,
        link_fraction=0.5, latency_scale=(4.0, 6.0),
    )
    FaultApplier(emulation, FaultPlan.of(perturbation)).install()
    sim.run(until=120.0)
    during_switches = sum(m.parent_switches for m in overlay.members.values())
    sim.run(until=200.0)
    overlay.stop()
    recovered = overlay.actual_max_delay()
    # After the perturbation ends, the overlay returns to sane delays.
    assert recovered < 4 * baseline + 0.5
    assert during_switches > 0


def test_spt_delay_is_lower_bound():
    sim, emulation, overlay = build_overlay()
    overlay.start()
    sim.run(until=60.0)
    overlay.stop()
    assert overlay.actual_max_delay() >= overlay.spt_delay() - 1e-9
