"""Digest-fold equivalence: the native fold against the sanitizer probe.

The digest contract has one byte stream and two producers:

* the sanitizer's :class:`DomainProbe` (the audited yardstick, kept
  for ``repro-net sanitize``'s first-divergence diffs),
* the domain's inline fold in its one dispatch loop (callsite bytes
  memoized, hash fed in joined chunks), armed by ``enable_digest``.

These tests pin both to the same bytes and event counts on every
dispatch entry point — ``step()``, ``run()``, ``run_until()``
inclusive and exclusive, a ``run_window()`` re-grant — and on the exit
paths that end a window early: ``stop()`` and a raising callback.
"""

import functools

import pytest

from repro.check.sanitize import DomainProbe, _callsite
from repro.engine.simulator import Simulator


def _module_fn():
    pass


class _Thing:
    def method(self):
        pass


def _schedule(sim):
    """A workload mixing every schedulable shape: anonymous post()
    entries, Event-carrying at()/schedule() entries, cancellations,
    bound methods, and partials (one of them at exactly t=2 ms)."""
    thing = _Thing()
    state = {"hops": 0}

    def hop():
        state["hops"] += 1
        if state["hops"] < 40:
            sim.post(sim.now + 1e-4, hop)

    sim.post(0.0, hop)
    sim.at(1e-3, thing.method)
    sim.at(2e-3, functools.partial(functools.partial(_module_fn)))
    cancelled = sim.at(3e-3, _module_fn)
    cancelled.cancel()
    sim.schedule(4e-3, _module_fn)


def _step(sim):
    _schedule(sim)
    while sim.step():
        pass


def _run(sim):
    _schedule(sim)
    sim.run(until=0.05)


def _run_until(inclusive):
    def drive(sim):
        _schedule(sim)
        # The first window's edge lands exactly on the 2 ms partial.
        sim.run_until(2e-3, inclusive)
        sim.run_until(0.05)

    return drive


def _run_window_regrant(sim):
    _schedule(sim)
    sim.run_window(2e-3, True)
    # Mail landing exactly on the granted horizon, then the same
    # window re-granted: only the new event fires.
    sim.post(2e-3, _module_fn)
    assert sim.run_window(2e-3, True) == 1
    # A horizon below now clamps and dispatches nothing.
    assert sim.run_window(1e-3, False) == 0
    sim.run_window(0.05, True)


def _run_past_a_chunk(sim):
    # 3000 events: the fold joins its 2048-entry chunk list mid-run.
    def tick():
        if sim.now < 3e-2:
            sim.post(sim.now + 1e-5, tick)

    sim.post(0.0, tick)
    sim.run()


_DRIVERS = {
    "step": _step,
    "run": _run,
    "run_past_a_chunk": _run_past_a_chunk,
    "run_until_inclusive": _run_until(True),
    "run_until_exclusive": _run_until(False),
    "run_window_regrant": _run_window_regrant,
}


def _probe_digest(drive):
    sim = Simulator()
    probe = DomainProbe(0).attach(sim)
    drive(sim)
    return probe.hexdigest(), probe.count


def _native_digest(drive):
    sim = Simulator()
    sim.enable_digest()
    drive(sim)
    return sim.digest_hexdigest(), sim.events_dispatched


def _assert_inline_matches_probe(drive):
    native = _native_digest(drive)
    assert native == _probe_digest(drive)
    assert native[1] > 0
    return native


# ----------------------------------------------------------------------
# Callsite encodings
# ----------------------------------------------------------------------

@pytest.mark.parametrize("fn", [
    _module_fn,
    _Thing().method,
    functools.partial(_module_fn),
    functools.partial(functools.partial(_Thing().method)),
    lambda: None,
])
def test_callsite_encoders_agree(fn):
    sim = Simulator()
    expected = _callsite(fn).encode()
    assert sim._callsite_bytes(fn) == expected
    # Second call exercises the memo hit.
    assert sim._callsite_bytes(fn) == expected


# ----------------------------------------------------------------------
# Inline fold == sanitizer probe, on every dispatch entry point
# ----------------------------------------------------------------------

@pytest.mark.parametrize("path", sorted(_DRIVERS))
def test_inline_fold_matches_probe(path):
    _assert_inline_matches_probe(_DRIVERS[path])


def test_windowed_paths_match_the_step_reference():
    reference = _native_digest(_step)
    for path in ("run", "run_until_inclusive", "run_until_exclusive"):
        assert _native_digest(_DRIVERS[path]) == reference, path


# ----------------------------------------------------------------------
# Every early exit flushes the chunked fold
# ----------------------------------------------------------------------

class _Boom(RuntimeError):
    pass


@pytest.mark.parametrize("events_before_boom", [1, 7, 100])
def test_raising_callback_flushes_identically(events_before_boom):
    def drive(sim):
        count = {"n": 0}

        def tick():
            count["n"] += 1
            if count["n"] == events_before_boom:
                raise _Boom()
            sim.post(sim.now + 1e-5, tick)

        sim.post(0.0, tick)
        with pytest.raises(_Boom):
            sim.run()

    _, events = _assert_inline_matches_probe(drive)
    assert events == events_before_boom


def test_stop_flushes_identically():
    def drive(sim):
        count = {"n": 0}

        def tick():
            count["n"] += 1
            if count["n"] >= 50:
                sim.stop()
            else:
                sim.post(sim.now + 1e-5, tick)

        sim.post(0.0, tick)
        sim.run()

    _, events = _assert_inline_matches_probe(drive)
    assert events == 50
