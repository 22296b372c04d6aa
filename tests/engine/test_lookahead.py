"""Tests for the per-pair lookahead matrix and the coalescing epoch
planner: matrix construction and min-plus closure, window arithmetic
(including the ``until``-boundary semantics), bind-time derivation
from a hand-built topology, and the load balance the locality binding
buys."""

import math

import pytest

from repro.engine import PartitionedSimulator
from repro.engine.domain import SimulationError
from repro.engine.sync import INFINITY, LookaheadMatrix, epoch_windows


# ----------------------------------------------------------------------
# LookaheadMatrix: construction, closure, infinity
# ----------------------------------------------------------------------

class TestLookaheadMatrix:
    def test_uniform_reproduces_the_scalar_synchronizer(self):
        matrix = LookaheadMatrix.uniform(3, 0.25)
        for i in range(3):
            for j in range(3):
                if i != j:
                    assert matrix.bound(i, j) == 0.25
        assert matrix.effective == 0.25
        # The diagonal closes to the cheapest cycle: out and back.
        assert matrix.bound(0, 0) == 0.5
        assert matrix.widest == 0.5

    def test_min_plus_closure_tightens_relayed_pairs(self):
        # Direct 0->2 is looser than the 0->1->2 relay; the closure
        # must take the relay.
        matrix = LookaheadMatrix(
            3,
            {(0, 1): 0.001, (1, 2): 0.002, (0, 2): 0.010},
            floor=1e-4,
        )
        assert matrix.bound(0, 1) == 0.001
        assert matrix.bound(0, 2) == pytest.approx(0.003)

    def test_unconnected_pairs_stay_infinite(self):
        # Domain 2 has no relation to anyone: its rows and columns
        # never constrain a window.
        matrix = LookaheadMatrix(
            3, {(0, 1): 0.001, (1, 0): 0.002}, floor=1e-4
        )
        for other in (0, 1):
            assert matrix.bound(other, 2) == INFINITY
            assert matrix.bound(2, other) == INFINITY
        assert matrix.bound(2, 2) == INFINITY
        # One-way relations stay one-way: no phantom reverse bound.
        assert matrix.bound(0, 0) == pytest.approx(0.003)
        triples = matrix.items()
        assert (0, 1, 0.001) in triples
        assert all(src != 2 and dst != 2 for src, dst, _ in triples)

    def test_validation(self):
        with pytest.raises(SimulationError):
            LookaheadMatrix(0, {}, floor=1e-4)
        with pytest.raises(SimulationError):
            LookaheadMatrix(2, {}, floor=0.0)  # zero floor
        with pytest.raises(SimulationError):
            LookaheadMatrix(2, {(0, 0): 1.0}, floor=1e-4)  # self-loop
        with pytest.raises(SimulationError):
            LookaheadMatrix(2, {(0, 5): 1.0}, floor=1e-4)  # range
        with pytest.raises(SimulationError):
            LookaheadMatrix(2, {(0, 1): 1e-5}, floor=1e-4)  # below floor


# ----------------------------------------------------------------------
# epoch_windows: coalescing arithmetic and the until boundary
# ----------------------------------------------------------------------

class TestEpochWindows:
    def test_windows_coalesce_to_the_pairwise_bounds(self):
        # Next work at t=1.0 in both domains; each destination's
        # horizon is the *other* side's send time plus the pair bound
        # (or its own cheapest cycle through the diagonal, whichever
        # is smaller).
        matrix = LookaheadMatrix(
            2, {(0, 1): 0.25, (1, 0): 0.75}, floor=1e-3
        )
        windows = epoch_windows([1.0, 1.0], matrix, until=10.0)
        assert windows == [(1.75, False), (1.25, False)]

    def test_idle_senders_drop_out_of_the_minimum(self):
        # Domain 1 — the only domain with a relation into domain 0 —
        # has its next work past until: it cannot send inside this
        # run, so domain 0 free-runs to the final barrier instead of
        # creeping one lookahead at a time.
        matrix = LookaheadMatrix(2, {(1, 0): 0.25}, floor=1e-3)
        windows = epoch_windows([1.0, 50.0], matrix, until=10.0)
        assert windows[0] == (10.0, True)
        # With domain 1 *active*, the same pair bound constrains it.
        windows = epoch_windows([1.0, 2.0], matrix, until=10.0)
        assert windows[0] == (2.25, False)

    def test_drained_run_returns_none(self):
        matrix = LookaheadMatrix.uniform(2, 0.001)
        assert epoch_windows([INFINITY, INFINITY], matrix, 10.0) is None
        assert epoch_windows([20.0, INFINITY], matrix, 10.0) is None

    def test_horizon_exactly_on_until_is_the_inclusive_final_barrier(self):
        # The coalesced horizon lands exactly on the target: the
        # window must clamp to (until, True) — an exclusive window at
        # until would strand events timed exactly there, and a window
        # past until would overrun the run target.
        matrix = LookaheadMatrix(
            2, {(0, 1): 0.5, (1, 0): 0.5}, floor=1e-3
        )
        windows = epoch_windows([0.5, INFINITY], matrix, until=1.0)
        assert windows == [(1.0, True), (1.0, True)]

    def test_regrant_at_until_dispatches_new_events_exactly_once(self):
        # Mail landing exactly on a granted horizon forces the planner
        # to re-issue (until, True); the re-run must dispatch only the
        # newly injected event (no double-dispatch, no skipped final
        # barrier).
        from repro.core.node import TUNNEL_IN
        from repro.engine.sync import MSG_TUNNEL

        sim = PartitionedSimulator(2, lookahead=0.5)
        fired = []
        sim.domains[1].at(1.0, fired.append, "edge")

        def cross_send():
            sim.router.send(1.0, 0, 1, MSG_TUNNEL, 1, "at-until")

        sim.domains[0].at(0.5, cross_send)

        class _Core:
            def __init__(self):
                self.received = []

            def physical_ingress(self, kind, payload):
                self.received.append((kind, payload))

        class _Emu:
            cores = [_Core(), _Core()]
            hosts = []

        sim.router.bind(_Emu)
        sim.run(until=1.0)
        assert fired == ["edge"]
        assert _Emu.cores[1].received == [(TUNNEL_IN, "at-until")]
        assert sim.router.messages_routed == 1
        # The final barrier ran: every clock sits exactly on until.
        assert all(d._now == 1.0 for d in sim.domains)

    def test_vector_length_is_validated(self):
        matrix = LookaheadMatrix.uniform(2, 0.001)
        with pytest.raises(SimulationError):
            epoch_windows([1.0], matrix, until=10.0)


# ----------------------------------------------------------------------
# Bind-time derivation from actual cross-domain pipe latencies
# ----------------------------------------------------------------------

def _chain_emulation():
    """c0 -- r0 -- r1 -- c1 with known latencies, split into two
    domains: domain 0 owns c0's side (links c0-r0, r0-r1), domain 1
    owns c1's side (link r1-c1)."""
    import repro.topology as rt
    from repro.core.assign import assign_by_vn_groups
    from repro.core.bind import bind_vns_locality
    from repro.core.emulator import Emulation, EmulationConfig

    topology = rt.Topology("chain2d")
    c0 = topology.add_node(rt.NodeKind.CLIENT)
    c1 = topology.add_node(rt.NodeKind.CLIENT)
    r0 = topology.add_node(rt.NodeKind.STUB)
    r1 = topology.add_node(rt.NodeKind.STUB)
    topology.add_link(c0.id, r0.id, 10e6, 0.001)
    topology.add_link(r0.id, r1.id, 10e6, 0.003)
    topology.add_link(r1.id, c1.id, 10e6, 0.005)
    assignment = assign_by_vn_groups(topology, [[c0.id], [c1.id]])
    sim = PartitionedSimulator(2, lookahead=1e-6)
    config = EmulationConfig()
    emulation = Emulation(
        sim,
        topology,
        config,
        assignment=assignment,
        binding=bind_vns_locality(topology, assignment),
        seed=0,
    )
    return sim, emulation, config


def test_matrix_derived_from_pipe_latencies_at_bind_time():
    from repro.hardware.calibration import min_cross_core_latency

    sim, emulation, config = _chain_emulation()
    floor = min_cross_core_latency(config.core_spec)
    matrix = sim.matrix
    # Cheapest way into domain 1 from domain 0: the r0->r1 pipe
    # (domain 0, 3 ms) whose destination node anchors domain 1's
    # pipes. Reverse direction crosses via c1->r1 (5 ms).
    assert matrix.bound(0, 1) == pytest.approx(0.003 + floor)
    assert matrix.bound(1, 0) == pytest.approx(0.005 + floor)
    # Diagonal = cheapest cycle = sum of both crossings.
    assert matrix.bound(0, 0) == pytest.approx(0.008 + 2 * floor)
    # Derived bounds dwarf the uniform calibration floor the
    # simulator started with — that is the whole point.
    assert matrix.effective > 100 * floor
    assert sim.lookahead == matrix.effective


def test_derived_windows_beat_the_uniform_floor_epoch_count():
    """The scalability claim in one number: with per-pair bounds the
    same run takes far fewer epochs than under the uniform floor."""
    sim, emulation, config = _chain_emulation()
    derived = sim.matrix
    floor = derived.floor
    uniform_epochs = math.ceil(0.05 / floor)  # one floor per round
    next_times = [0.0, 0.0]
    epochs = 0
    while True:
        windows = epoch_windows(next_times, derived, until=0.05)
        if windows is None:
            break
        epochs += 1
        assert epochs < 1000, "planner failed to make progress"
        next_times = [
            horizon if not inclusive else INFINITY
            for (horizon, inclusive) in windows
        ]
    assert epochs * 100 < uniform_epochs


# ----------------------------------------------------------------------
# Load balance: the locality binding spreads events across domains
# ----------------------------------------------------------------------

def test_ring_domains_are_load_balanced():
    """The old modulo binding piled every VN host onto core 0, so
    domain 0 dispatched ~4x the events of any other domain on
    ring8x2. The locality binding must keep the spread bounded."""
    from repro.api import Scenario
    from repro.topology import ring_topology

    scenario = (
        Scenario(ring_topology(num_routers=8, vns_per_router=2), name="ring8")
        .distill("hop-by-hop")
        .assign(4)
        .seed(7)
        .netperf(flows=8)
        .observe(False)
        .backend("serial", domains=4)
    )
    scenario.build()
    scenario.run(until=0.05)
    counts = scenario.sim.events_by_domain()
    assert len(counts) == 4
    assert min(counts) > 0
    assert max(counts) <= 2 * min(counts), (
        f"per-domain event spread too wide: {counts}"
    )
