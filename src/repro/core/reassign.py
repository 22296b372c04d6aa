"""Dynamic pipe-to-core reassignment (paper Sec. 2.1).

The greedy k-clusters assignment is computed before traffic exists;
the paper notes the ideal assignment depends on the offered load and
that the authors were "investigating approximations for dynamically
reassigning pipes to cores to minimize bandwidth demands across the
core based on evolving communication patterns."

:class:`DynamicReassigner` implements that approximation online:

1. core nodes record how many packets move between each consecutive
   pipe pair (and from each ingress core to each first pipe);
2. every period, a greedy local search considers moving pipes to the
   core where most of their observed traffic neighbors live;
3. moves are applied only to quiescent pipes (no packets in flight),
   so scheduler state never straddles cores, and a load-balance bound
   keeps any core from accreting everything.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.emulator import Emulation


class DynamicReassigner:
    """Online greedy pipe migration driven by observed traffic."""

    def __init__(
        self,
        emulation: Emulation,
        period_s: float = 2.0,
        max_moves_per_round: int = 16,
        load_imbalance_limit: float = 2.0,
    ):
        if len(emulation.cores) < 2:
            raise ValueError("reassignment needs multiple cores")
        if getattr(emulation, "num_domains", 1) > 1:
            # Migration pokes the destination core's scheduler heap
            # directly; under partitioned execution that core may live
            # on another event domain (or another worker process), so
            # the poke would bypass the DomainRouter and desync digests.
            raise ValueError(
                "dynamic reassignment requires single-domain execution "
                f"(got {emulation.num_domains} event domains); it "
                "migrates scheduler state that must not cross domains"
            )
        self.emulation = emulation
        self.period_s = period_s
        self.max_moves_per_round = max_moves_per_round
        self.load_imbalance_limit = load_imbalance_limit
        self._tracker: Dict[Tuple[int, int], int] = {}
        for core in emulation.cores:
            core.pair_tracker = self._tracker
        self._running = False
        self.rounds = 0
        self.moves = 0

    # ------------------------------------------------------------------

    def start(self) -> None:
        self._running = True
        self.emulation.sim.schedule(self.period_s, self._tick)

    def stop(self) -> None:
        self._running = False

    def _tick(self) -> None:
        if not self._running:
            return
        self.rebalance()
        self.emulation.sim.schedule(self.period_s, self._tick)

    # ------------------------------------------------------------------

    def observed_crossings(self) -> int:
        """Packets observed moving between pipes on different cores
        (including ingress-to-first-pipe crossings) this window."""
        by_id = self.emulation.pipes.by_id
        crossings = 0
        for (prev_id, next_id), count in self._tracker.items():
            next_owner = by_id(next_id).owner
            if prev_id < 0:
                prev_owner = -1 - prev_id
            else:
                prev_owner = by_id(prev_id).owner
            if prev_owner != next_owner:
                crossings += count
        return crossings

    def rebalance(self) -> int:
        """One greedy round; returns the number of pipes migrated."""
        self.rounds += 1
        emulation = self.emulation
        table = emulation.pipes
        # Tracked ids are of pipes that carried packets, so built ones.
        by_id = table.by_id
        num_cores = len(emulation.cores)

        # Per-pipe traffic affinity to each core.
        affinity: Dict[int, List[float]] = {}
        for (prev_id, next_id), count in self._tracker.items():
            if prev_id < 0:
                prev_owner: Optional[int] = -1 - prev_id
            else:
                prev_owner = None  # resolved per evaluation below
            for pipe_id, other_id, fixed_owner in (
                (next_id, prev_id, prev_owner),
                (prev_id, next_id, None),
            ):
                if pipe_id < 0:
                    continue
                owner_of_other = (
                    fixed_owner
                    if fixed_owner is not None
                    else by_id(other_id).owner
                    if other_id >= 0
                    else -1 - other_id
                )
                weights = affinity.setdefault(pipe_id, [0.0] * num_cores)
                weights[owner_of_other] += count

        loads = [0] * num_cores
        for owner in table.owners():
            loads[owner] += 1
        max_load = self.load_imbalance_limit * len(table) / num_cores

        # Consider the hottest pipes first.
        candidates = sorted(
            affinity.items(), key=lambda kv: -sum(kv[1])
        )
        moves = 0
        for pipe_id, weights in candidates:
            if moves >= self.max_moves_per_round:
                break
            pipe = by_id(pipe_id)
            current = pipe.owner
            best = max(range(num_cores), key=lambda core: weights[core])
            if best == current or weights[best] <= weights[current]:
                continue
            if loads[best] + 1 > max_load:
                continue
            self._migrate(pipe, best)
            loads[current] -= 1
            loads[best] += 1
            moves += 1
        self.moves += moves
        self._tracker.clear()
        return moves

    def _migrate(self, pipe, new_core: int) -> None:
        """Move ownership; future descriptors route to the new core.

        Each direction of a link migrates independently (the two
        pipes are independent emulation objects); the assignment's
        ``link_to_core`` tracks the forward direction. A busy pipe's
        scheduler residency moves too: the old core's heap entry goes
        stale (lazy deletion) and the new core takes over service.
        """
        from repro.core.pipe import INFINITY

        pipe.owner = new_core
        pipe._sched_hint = INFINITY
        core = self.emulation.cores[new_core]
        # Single-domain by construction: __init__ rejects partitioned
        # emulations, so this core shares our clock and heap.
        core.scheduler.notify(pipe)  # repro: allow-unrouted-peer-call
        core._reschedule_wake()  # repro: allow-unrouted-peer-call
        table = self.emulation.pipes
        forward = table.peek(table.pipe_id(pipe.link_id, 0))
        self.emulation.assignment.link_to_core[pipe.link_id] = forward.owner
