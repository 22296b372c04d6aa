"""The worker-driven loop's peer exchange.

Every worker sends one frame to every peer and receives one from each
in the same call. That must not deadlock whatever the frame size: with
three workers and frames far larger than the socket buffers, a fixed
send order ("the lower index sends first") blocks in a cycle.
"""

import threading

from repro.engine.parallel import PeerMesh, peer_mesh

WORKERS = 3
TIMEOUT_S = 30.0


def _frame(src, dst, round_, size):
    return bytes([src, dst, round_]) * (size // 3)


def _run_mesh(sizes):
    """Run ``len(sizes)`` exchange rounds among ``WORKERS`` threads;
    return each worker's per-round result (True when every frame
    arrived intact)."""
    rows = peer_mesh(WORKERS)
    results = {}

    def worker(index):
        mesh = PeerMesh(rows[index])
        outcome = []
        for round_, size in enumerate(sizes):
            got = mesh.exchange(
                {peer: _frame(index, peer, round_, size) for peer in mesh.peers}
            )
            outcome.append(
                sorted(got) == mesh.peers
                and all(
                    got[peer] == _frame(peer, index, round_, size)
                    for peer in mesh.peers
                )
            )
        mesh.close()
        results[index] = outcome

    threads = [
        threading.Thread(target=worker, args=(i,), daemon=True)
        for i in range(WORKERS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(TIMEOUT_S)
    assert not any(thread.is_alive() for thread in threads), "exchange deadlocked"
    return results


def test_three_workers_swap_megabyte_frames_without_deadlock():
    sizes = [3 << 20, 1 << 20]
    results = _run_mesh(sizes)
    assert results == {i: [True] * len(sizes) for i in range(WORKERS)}


def test_back_to_back_rounds_keep_frames_apart():
    """A fast peer's next frame may already be queued behind the
    current one; reads must stop at the frame boundary."""
    sizes = [0, 3, 30, 300_000, 3, 0, 3000]
    results = _run_mesh(sizes)
    assert results == {i: [True] * len(sizes) for i in range(WORKERS)}


def test_a_lone_worker_exchanges_nothing():
    assert PeerMesh({}).exchange({}) == {}
