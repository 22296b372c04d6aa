"""Legal cross-domain patterns: every line here must pass DOM/EPO/PORT.

The shapes the analyzer sanctions: delivery times derived from the
channel, peer calls behind a domain guard, progress writes through
the barrier facade, and module-level Process targets.
"""

import multiprocessing


def route(sim, channel, src, dst, target, payload):
    sim.router.send(
        channel.delivery_time(sim.now, 64), src, dst, "deliver", target, payload
    )


def deliver_guarded(emulation, router, index, packet):
    domain_of_core = emulation._domain_of_core
    core = emulation.cores[index]
    if domain_of_core[index] == 0:
        core.ingress_packet(packet)
    else:
        router.send(packet.time, 0, domain_of_core[index], "deliver", index, packet)


def align_progress(sim, until, owned):
    sim.fast_forward(until, owned)


def next_times(sim, owned):
    return {d: sim.domains[d].next_event_time() for d in owned}


def worker_main(conn, spec, owned):
    pass


def spawn(ctx, child_conn, spec, owned):
    return ctx.Process(target=worker_main, args=(child_conn, spec, owned))
