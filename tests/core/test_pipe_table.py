"""The pipe table: two pipes per link, each built on first use.

The reference is the eager build the table replaced: every pipe made
at bind time from its link, in link-id order, with the owner the
assignment gave it. A pipe built later must equal that one, and reads
of logical structure (reports, statistics, the lookahead matrix, a
fault plan's installation) must build nothing.
"""

import pytest

from repro.api import Scenario
from repro.core import DistillationMode, EmulationConfig, ExperimentPipeline
from repro.core.emulator import PipeTable, make_qdisc
from repro.core.pipe import Pipe
from repro.core.queues import DROP_TAIL, REDQueue
from repro.core.reassign import DynamicReassigner
from repro.engine import Simulator
from repro.faults import FaultPlan, LinkDown, LinkUp, Perturbation
from repro.obs.report import RunStats, build_report
from repro.topology import ring_topology, star_topology


def eager_pipes(links, link_to_core):
    """Every pipe as the eager build made it, in id order."""
    pipes = []
    for link in sorted(links, key=lambda l: l.id):
        for src, dst in ((link.a, link.b), (link.b, link.a)):
            pipe = Pipe(
                len(pipes),
                link.bandwidth_bps,
                link.latency_s,
                link.loss_rate,
                link.queue_limit,
                qdisc=make_qdisc(link),
                link_id=link.id,
                src_node=src,
                dst_node=dst,
            )
            pipe.up = link.up
            pipe.owner = link_to_core[link.id]
            pipes.append(pipe)
    return pipes


def _state(pipe):
    return (
        pipe.id, pipe.link_id, pipe.src_node, pipe.dst_node,
        pipe.bandwidth_bps, pipe.latency_s, pipe.loss_rate, pipe.queue_limit,
        type(pipe.qdisc), pipe.up, pipe.owner,
    )


def _emulation(topology, cores=2):
    return (
        ExperimentPipeline(Simulator(), seed=1)
        .create(topology)
        .distill(DistillationMode.HOP_BY_HOP)
        .assign(cores)
        .bind(1)
        .run(EmulationConfig())
    )


def _annotated_ring():
    """A ring with a RED link, a down link and varied link parameters."""
    topology = ring_topology(num_routers=4, vns_per_router=2)
    links = sorted(topology.links.values(), key=lambda l: l.id)
    for index, link in enumerate(links):
        link.latency_s = 0.001 * (index + 1)
        link.loss_rate = 0.01 * (index % 3)
        link.queue_limit = 10 + index
    links[2].attrs["qdisc"] = "red"
    links[5].up = False
    return topology


def test_built_on_first_use_equals_eager():
    emulation = _emulation(_annotated_ring())
    table = emulation.pipes
    reference = eager_pipes(
        emulation.topology.links.values(), emulation.assignment.link_to_core
    )
    assert not table.built()
    assert len(table) == len(reference) == 2 * emulation.topology.num_links
    assert {pipe.owner for pipe in reference} == {0, 1}
    assert any(not pipe.up for pipe in reference)
    assert any(pipe.qdisc is not reference[0].qdisc for pipe in reference)
    for expected in reference:
        state = _state(expected)
        # The spec is the pipe before its build: every field but the qdisc.
        assert tuple(table.initial(expected.id)) == state[:8] + state[9:]
        assert _state(table.by_id(expected.id)) == state
    assert len(table.built()) == len(reference)
    assert table.built() == [table.by_id(i) for i in range(len(table))]


def test_fifo_pipes_share_one_drop_tail():
    emulation = _emulation(_annotated_ring())
    pipes = [emulation.pipes.by_id(i) for i in range(len(emulation.pipes))]
    red = [pipe.qdisc for pipe in pipes if isinstance(pipe.qdisc, REDQueue)]
    fifo = [pipe.qdisc for pipe in pipes if not isinstance(pipe.qdisc, REDQueue)]
    assert all(qdisc is DROP_TAIL for qdisc in fifo)
    # RED keeps an EWMA, so each direction has its own.
    assert len(red) == 2 and red[0] is not red[1]


def test_by_id_round_trips_every_id():
    emulation = _emulation(_annotated_ring())
    table = emulation.pipes
    for link in emulation.topology.links.values():
        for direction in (0, 1):
            pipe_id = table.pipe_id(link.id, direction)
            pipe = table.pipe(link.id, direction)
            assert pipe.id == pipe_id
            assert pipe is table.by_id(pipe_id)
            assert (pipe.link_id, pipe.src_node) == (
                link.id, link.a if direction == 0 else link.b
            )
    assert sorted(pipe.id for pipe in table.built()) == list(range(len(table)))
    with pytest.raises(IndexError):
        table.by_id(-1)
    with pytest.raises(IndexError):
        table.by_id(len(table))
    # No link has id -1: it must not wrap round to the last link.
    with pytest.raises(KeyError):
        table.pipe(-1, 0)


def test_sparse_link_ids_keep_rank_order():
    topology = star_topology(4)
    removed = sorted(topology.links)[1]
    topology.remove_link(removed)
    links = list(topology.links.values())
    owners = {link.id: link.id % 2 for link in links}
    table = PipeTable(links, owners)
    reference = eager_pipes(links, owners)
    for expected in reference:
        assert _state(table.by_id(expected.id)) == _state(expected)
    with pytest.raises(KeyError):
        table.pipe(removed, 0)


def test_reads_of_logical_structure_build_nothing():
    scenario = (
        Scenario(ring_topology(num_routers=8, vns_per_router=2))
        .distill("hop-by-hop")
        .assign(4)
        .backend("serial", domains=2)
        .seed(3)
    )
    scenario.build()
    emulation = scenario.emulation
    table = emulation.pipes
    # The build derived the lookahead matrix from every pipe.
    assert emulation.num_domains == 2
    assert not table.built()
    links = sorted(emulation.topology.links)
    emulation.install_fault_plan(
        FaultPlan.of(
            LinkDown(0.1, links[0]),
            LinkUp(0.2, links[0]),
            Perturbation(0.05, 0.3, 0.1, link_fraction=0.5,
                         latency_scale=(0.9, 1.1)),
        )
    )
    assert emulation.virtual_drops() == 0
    stats = RunStats.gather(emulation)
    report = build_report(emulation)
    assert emulation.fault_applier.link_state()
    assert not table.built()
    assert stats.metrics.get("pipe.count").value == len(table)
    assert report.metric("pipe.built") == 0
    assert report.topology["pipes"] == len(table) == 2 * len(links)
    assert f"pipes={len(table)}" in repr(emulation)


def test_reverse_pipe_built_after_migration_keeps_bind_time_owner():
    emulation = _emulation(_annotated_ring())
    table = emulation.pipes
    link_id = sorted(emulation.topology.links)[0]
    bind_owner = emulation.assignment.link_to_core[link_id]
    forward = table.pipe(link_id, 0)
    DynamicReassigner(emulation)._migrate(forward, 1 - bind_owner)
    # The live map follows the migrated forward pipe...
    assert emulation.assignment.link_to_core[link_id] == 1 - bind_owner
    # ...the reverse direction, built only now, does not.
    assert len(table.built()) == 1
    assert table.pipe(link_id, 1).owner == bind_owner
    assert forward.owner == 1 - bind_owner


def test_pipe_built_after_node_failed_keeps_bind_time_up_flag():
    emulation = _emulation(_annotated_ring())
    topology = emulation.topology
    node = next(
        node_id for node_id in topology.nodes
        if all(link.up for link in topology.links_of(node_id))
    )
    emulation.routing.node_failed(topology, node)
    failed = topology.links_of(node)
    assert failed and not any(link.up for link in failed)
    for link in failed:
        for pipe in emulation.pipes_of_link(link.id):
            assert pipe.up


def test_mutators_build_the_pipes_they_change():
    emulation = _emulation(_annotated_ring())
    link_id = sorted(emulation.topology.links)[1]
    emulation.set_link_params(link_id, latency_s=0.05)
    emulation.set_link_up(link_id, False)
    table = emulation.pipes
    assert len(table.built()) == 2
    for direction in (0, 1):
        pipe = table.pipe(link_id, direction)
        assert (pipe.latency_s, pipe.up) == (0.05, False)
        assert table.peek(pipe.id) is pipe
    untouched = table.peek(table.pipe_id(sorted(emulation.topology.links)[0], 0))
    assert not isinstance(untouched, Pipe)
    assert len(table.built()) == 2


def test_paper_scale_end_to_end_build_makes_no_pipe():
    """Fig. 5's end-to-end distillation of the 20-router, 400-VN ring
    is a 79,800-link mesh: 159,600 logical pipes, none built before
    the run starts."""
    topology = ring_topology(
        num_routers=20, vns_per_router=20,
        ring_bandwidth_bps=20e6, vn_bandwidth_bps=2e6,
    )
    scenario = Scenario(topology).distill("end-to-end").assign(1).bind(hosts=20)
    scenario.build()
    emulation = scenario.emulation
    report = build_report(emulation)
    assert not emulation.pipes.built()
    assert report.topology["pipes"] == 159_600
    assert report.metric("pipe.count") == 159_600
    assert report.metric("pipe.built") == 0
