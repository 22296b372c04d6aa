"""Outcome fingerprint: what the emulated network did in one run.

Built from outcomes, not from the event stream: packets entered,
delivered and dropped by reason, unroutable packets, bytes received
over TCP, bytes received per flow, and the p99 of per-packet delivery
error in virtual time. A change that removes events without changing
behaviour keeps the fingerprint; one that changes a delivery, a drop
or a delivery time does not.

Per-flow bytes are known only for runs whose traffic ran in this
process. A multiprocess parent's streams never run, so its fingerprint
has ``flows`` set to None and is compared without them.
"""

from __future__ import annotations

from typing import Dict, List, Optional

#: Report metric -> fingerprint key.
COUNT_FIELDS = {
    "accuracy.packets_entered": "entered",
    "accuracy.packets_delivered": "delivered",
    "accuracy.packets_unroutable": "unroutable",
    "pipe.drops_overflow": "drop_overflow",
    "pipe.drops_random": "drop_random",
    "pipe.drops_down": "drop_down",
    "accuracy.physical_drops_ring": "drop_ring",
    "accuracy.physical_drops_egress": "drop_egress",
    "accuracy.physical_drops_uplink": "drop_uplink",
    "tcp.bytes_received": "tcp_bytes_received",
}


def outcome(metrics: Dict, flows: Optional[List[int]] = None) -> Dict:
    """The fingerprint of one run from its report metrics."""
    return {
        "counts": {key: int(metrics.get(name, 0)) for name, key in COUNT_FIELDS.items()},
        "flows": list(flows) if flows is not None else None,
        "p99_error_us": float(metrics.get("accuracy.p99_error_s", 0.0)) * 1e6,
    }


def mismatches(expected: Dict, actual: Dict) -> List[str]:
    """Human-readable differences; ``flows`` is compared only when both
    sides carry it."""
    out = []
    for key, value in expected["counts"].items():
        got = actual["counts"].get(key)
        if got != value:
            out.append(f"{key}: expected {value}, got {got}")
    if expected.get("flows") is not None and actual.get("flows") is not None:
        if expected["flows"] != actual["flows"]:
            out.append("per-flow bytes differ")
    if expected["p99_error_us"] != actual["p99_error_us"]:
        out.append(
            f"p99_error_us: expected {expected['p99_error_us']}, "
            f"got {actual['p99_error_us']}"
        )
    return out
