"""Cross-worker mail: the flat field codec and the worker grouping.

A multiprocess worker ships mail to a peer as tuples of plain fields
(:func:`encode_message`), one pickle frame per peer per epoch, and the
peer rebuilds packets, segments and descriptors against its own,
identically built emulation (:func:`decode_message`). Domains are
dealt to workers so that directly connected domains share one
(:func:`worker_groups`).
"""

import pickletools

import pytest

from repro.api import Scenario
from repro.core.packet import PacketDescriptor
from repro.engine.parallel import (
    PipeRoutes,
    decode_message,
    encode_message,
    pack_frame,
    unpack_frame,
    worker_groups,
)
from repro.engine.sync import (
    DomainMessage,
    LookaheadMatrix,
    MSG_DELIVER,
    MSG_HOST,
    MSG_TUNNEL,
)
from repro.net.packet import Packet
from repro.net.sockets import UdpDatagram
from repro.net.tcp import TcpSegment
from repro.topology import ring_topology


def _emulation():
    return (
        Scenario(ring_topology(num_routers=8, vns_per_router=2), name="ring8")
        .distill("hop-by-hop")
        .assign(4)
        .seed(3)
        .observe(False)
        .backend("serial", domains=4)
        .build()
    )


@pytest.fixture(scope="module")
def emulations():
    """A sender's and a receiver's emulation of the same scenario."""
    return _emulation(), _emulation()


def _descriptor(emulation, segment, proto):
    pipes = tuple(sorted(emulation.pipes.values(), key=lambda p: p.id)[3:7])
    packet = Packet(2, 9, 1040, proto, segment, created_at=0.125)
    descriptor = PacketDescriptor(packet, pipes, entry_core=1, entered_at=0.25)
    descriptor.hop_index = 2
    descriptor.ideal_time = 0.2515
    descriptor.tunnel_hops = 3
    return descriptor


def _mail(sender):
    tcp = TcpSegment(
        5001, 80, 1000, 2000, 0x10, 65535, 1000,
        messages=[(1500, "request"), (2000, {"chunk": 7})],
        sack_blocks=[(3000, 4000), (5000, 6000)],
    )
    udp = UdpDatagram(6000, 7000, {"frame": [1, 2, 3]}, 512)
    return [
        DomainMessage(0.5, 0, 4, 2, MSG_TUNNEL, 3, _descriptor(sender, tcp, "tcp")),
        DomainMessage(0.5, 1, 0, 3, MSG_DELIVER, 0, _descriptor(sender, udp, "udp")),
        DomainMessage(
            0.75, 3, 9, 0, MSG_HOST, 1,
            Packet(4, 11, 99, "raw", ("opaque", 42), created_at=0.5),
        ),
    ]


def _round_trip(mail, receiver):
    frame = pack_frame(([0.5, 0.75], {2: 0.5}, [encode_message(m) for m in mail]))
    heads, minima, fields = unpack_frame(frame)
    assert (heads, minima) == ([0.5, 0.75], {2: 0.5})
    routes = PipeRoutes(receiver)
    return frame, [decode_message(f, routes) for f in fields]


def _packet_fields(packet):
    return (packet.id, packet.src, packet.dst, packet.size_bytes, packet.proto,
            packet.created_at)


def _segment_fields(segment):
    if isinstance(segment, (TcpSegment, UdpDatagram)):
        return (type(segment),) + tuple(
            getattr(segment, name) for name in type(segment).__slots__
        )
    return segment


def test_every_field_survives_the_round_trip(emulations):
    sender, receiver = emulations
    mail = _mail(sender)
    _, decoded = _round_trip(mail, receiver)
    assert len(decoded) == len(mail)
    for sent, got in zip(mail, decoded):
        assert isinstance(got, DomainMessage)
        assert got[:6] == sent[:6]
        if sent.kind == MSG_HOST:
            sent_packet, got_packet = sent.payload, got.payload
        else:
            sent_d, got_d = sent.payload, got.payload
            assert isinstance(got_d, PacketDescriptor)
            for name in ("hop_index", "entry_core", "entered_at", "ideal_time",
                         "tunnel_hops"):
                assert getattr(got_d, name) == getattr(sent_d, name), name
            assert got_d.handoff == 0
            assert [p.id for p in got_d.pipes] == [p.id for p in sent_d.pipes]
            sent_packet, got_packet = sent_d.packet, got_d.packet
        assert type(got_packet) is Packet
        # The packet keeps its sender's id, not a fresh receiver one.
        assert _packet_fields(got_packet) == _packet_fields(sent_packet)
        assert _segment_fields(got_packet.segment) == _segment_fields(
            sent_packet.segment
        )


def test_decoded_pipes_are_the_receivers_own(emulations):
    sender, receiver = emulations
    _, decoded = _round_trip(_mail(sender), receiver)
    descriptors = [m.payload for m in decoded if m.kind != MSG_HOST]
    assert descriptors
    for descriptor in descriptors:
        for pipe in descriptor.pipes:
            assert pipe is receiver._pipes_by_id[pipe.id]
            assert pipe is not sender._pipes_by_id[pipe.id]
    # One route, one tuple: the pipes tuple is resolved once per route.
    assert descriptors[0].pipes is descriptors[1].pipes


def test_a_frame_names_no_emulator_class(emulations):
    sender, receiver = emulations
    frame, _ = _round_trip(_mail(sender), receiver)
    names = [
        arg
        for _, arg, _ in pickletools.genops(frame)
        if isinstance(arg, str)
    ]
    assert not [name for name in names if name.startswith("repro")]


def _ring(n):
    pairs = {}
    for d in range(n):
        pairs[(d, (d + 1) % n)] = pairs[((d + 1) % n, d)] = 1e-3
    return pairs


@pytest.mark.parametrize(
    "direct, workers, groups",
    [
        # A ring numbered in order: blocks of neighbours.
        (_ring(4), 2, [[0, 1], [2, 3]]),
        (_ring(4), 3, [[0, 1], [2], [3]]),
        # A ring numbered 0-2-1-3: the walk follows the links, not ids.
        ({(0, 2): 1e-3, (2, 1): 1e-3, (1, 3): 1e-3, (3, 0): 1e-3}, 2,
         [[0, 2], [1, 3]]),
        # Domain 1 is unreached from 0; it starts the next walk.
        ({(0, 2): 1e-3, (2, 0): 1e-3, (1, 3): 1e-3}, 2, [[0, 2], [1, 3]]),
        # No relations at all: id order.
        ({}, 2, [[0, 1], [2, 3]]),
        ({}, 3, [[0, 1], [2], [3]]),
        ({}, 4, [[0], [1], [2], [3]]),
    ],
)
def test_worker_groups(direct, workers, groups):
    assert worker_groups(4, direct, workers) == groups


@pytest.mark.parametrize("workers", [1, 2, 3, 4])
def test_worker_groups_are_balanced_and_keep_domain_0_first(workers):
    for direct in (_ring(4), {}):
        groups = worker_groups(4, direct, workers)
        sizes = [len(group) for group in groups]
        assert len(groups) == workers
        assert max(sizes) - min(sizes) <= 1
        assert sorted(d for group in groups for d in group) == [0, 1, 2, 3]
        assert groups[0][0] == 0


def test_a_built_ring_shares_a_worker_between_neighbours():
    """On an 8-router ring over 4 domains every two-domain group is a
    directly connected pair, so half the ring's domain boundaries stay
    inside a process."""
    scenario = (
        Scenario(ring_topology(num_routers=8, vns_per_router=2), name="ring8")
        .distill("hop-by-hop")
        .assign(4)
        .seed(1)
        .observe(False)
        .backend("serial", domains=4)
    )
    scenario.build()
    matrix = scenario.sim.matrix
    assert isinstance(matrix, LookaheadMatrix)
    for group in worker_groups(4, matrix.direct, 2):
        assert (group[0], group[1]) in matrix.direct
