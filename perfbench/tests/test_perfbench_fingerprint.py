"""Outcome fingerprints: deterministic per seed, and equal across the
multiprocess and serial-partitioned engines."""

import fingerprint
from workloads import WORKLOADS, flow_bytes


def _outcome(name, seed, until, variant="measured"):
    workload = WORKLOADS[name]
    scenario = workload.scenario(workload.make_inputs(seed), variant)
    report = scenario.run(until=until)
    in_process = not (workload.multiprocess and variant == "measured")
    flows = flow_bytes(scenario) if in_process else None
    return fingerprint.outcome(report.metrics, flows)


def test_fingerprint_equal_across_two_runs_of_one_seed():
    first = _outcome("dumbbell_tcp", 3, 2.0)
    second = _outcome("dumbbell_tcp", 3, 2.0)
    assert first == second
    assert first["counts"]["delivered"] > 0
    assert len(first["flows"]) == 4


def test_fingerprint_differs_across_seeds():
    a = _outcome("dumbbell_tcp", 1, 2.0)
    b = _outcome("dumbbell_tcp", 2, 2.0)
    assert a != b


def test_mismatches_ignore_flows_missing_on_one_side():
    full = _outcome("dumbbell_tcp", 1, 1.0)
    counts_only = {**full, "counts": dict(full["counts"]), "flows": None}
    assert fingerprint.mismatches(full, counts_only) == []
    counts_only["counts"]["delivered"] += 1
    assert fingerprint.mismatches(full, counts_only) == [
        f"delivered: expected {full['counts']['delivered']}, "
        f"got {full['counts']['delivered'] + 1}"
    ]


def test_multiprocess_outcome_equals_serial_partitioned():
    mp = _outcome("ring_mp2", 1, 0.3)
    serial = _outcome("ring_mp2", 1, 0.3, variant="serial")
    assert mp["flows"] is None and serial["flows"]
    assert fingerprint.mismatches(serial, mp) == []


def test_inputs_are_a_function_of_the_seed():
    for workload in WORKLOADS.values():
        a, b = workload.make_inputs(5), workload.make_inputs(5)
        assert sorted(a["topology"].links) == sorted(b["topology"].links)
        assert [
            (l.a, l.b, l.latency_s) for l in a["topology"].links.values()
        ] == [(l.a, l.b, l.latency_s) for l in b["topology"].links.values()]
        assert a.get("pairs") == b.get("pairs")
        assert a.get("faults") == b.get("faults")
