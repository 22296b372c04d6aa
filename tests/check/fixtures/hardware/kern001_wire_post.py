"""Seeded KERN001 in the physical substrate: a wire that posts a
per-packet completion event carrying the descriptor, beside the
sanctioned shape (one delivery entry whose payload is opaque args).
"""

from heapq import heappush


def post_serialized(sim, done, descriptor):
    # Seeded: a per-packet event that carries the descriptor.
    sim.post(done, serialized, descriptor)


def push_delivery(sim, done, seq, deliver_fn, args):
    # Sanctioned: the wire's one delivery entry per send.
    heappush(sim._heap, (done, seq, None, deliver_fn, args))


def serialized(descriptor):
    return descriptor
