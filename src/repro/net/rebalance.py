"""Rebalance policy: which worker to drain, decided from host time.

The signal is the per-worker ``quantum.run`` self-time exported by the
worker-side host profiler (:mod:`repro.profile.timers`) — the seconds
a worker's host CPU actually spent interpreting target ops, the same
quantity the paper's slowdown analysis attributes (§4.2).  A worker
whose *interval* busy time exceeds the fastest worker's by more than
``threshold``× is declared slow — its host is oversubscribed or just
weaker — and its whole shard is drained to the least busy worker via
the checkpoint-migration path.

The policy is purely observational: it reads host time and moves
*placement*, never simulated state, so any (or no) rebalance decision
leaves simulated metrics untouched.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Tuple


class SlowestWorkerPolicy:
    """Drain the slowest worker when imbalance crosses a threshold.

    ``observe`` is fed cumulative per-worker ``quantum.run`` self-time
    (nanoseconds) at every policy interval; decisions use the delta
    since the previous interval so one historically slow quantum does
    not dominate forever.
    """

    def __init__(self, threshold: float = 4.0,
                 min_busy_ns: int = 1_000_000) -> None:
        self.threshold = threshold
        #: Intervals where even the slowest worker stayed under this
        #: are noise (startup, tiny workloads) and never trigger.
        self.min_busy_ns = min_busy_ns
        self._previous: Dict[int, int] = {}

    def observe(self, busy_ns: Dict[int, int],
                loaded: Iterable[int],
                idle: Iterable[int]) -> Optional[Tuple[int, int]]:
        """Return ``(src, dst)`` to migrate, or ``None`` to hold.

        ``loaded`` are candidate sources (workers owning tiles);
        ``idle`` are preferred destinations (tile-less joiners); when
        no idle worker exists the least busy loaded worker is the
        destination.
        """
        deltas = {}
        for worker, total in busy_ns.items():
            deltas[worker] = total - self._previous.get(worker, 0)
            self._previous[worker] = total
        sources = [w for w in loaded if w in deltas]
        if len(sources) < 1:
            return None
        src = max(sources, key=lambda w: (deltas[w], w))
        if deltas[src] < self.min_busy_ns:
            return None
        idle = list(idle)
        if idle:
            dst = min(idle)
            # An idle joiner absorbs the slowest shard unconditionally
            # once the source shows real load: the whole point of
            # dialing in a fresh host is to take work.
            return (src, dst)
        if len(sources) < 2:
            return None
        dst = min(sources, key=lambda w: (deltas[w], -w))
        if dst == src:
            return None
        if deltas[src] < self.threshold * max(deltas[dst], 1):
            return None
        return (src, dst)


def create_policy(config) -> Optional[SlowestWorkerPolicy]:
    """Build the policy named by ``config.distrib.rebalance``."""
    if config.distrib.rebalance == "slowest":
        return SlowestWorkerPolicy()
    return None
