"""Point-to-point synchronization — LaxP2P (paper §3.6.3).

Each tile periodically picks another tile at random and compares clocks.
If they differ by more than the configured *slack*, the tile that is
ahead goes to sleep for a short real time: ``s = c / r`` seconds, where
``c`` is the clock difference in cycles and ``r`` the rate of simulated
progress in cycles per host second (approximated from total progress).
The scheme is completely distributed — no global structures — which is
what lets it scale where the barrier cannot.

LaxP2P prevents outliers: a thread running ahead puts itself to sleep;
a thread falling behind puts everyone who checks against it to sleep,
which quickly propagates.
"""

from __future__ import annotations

import random
from typing import Dict, Optional, TYPE_CHECKING

from repro.common.config import SyncConfig
from repro.common.ids import TileId
from repro.common.stats import StatGroup
from repro.sync.model import SynchronizationModel

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.host.scheduler import ScheduledThread


class LaxP2PModel(SynchronizationModel):
    """Randomized pairwise slack enforcement."""

    name = "lax_p2p"
    __slots__ = ("slack", "interval", "_rng", "_next_check", "_checks",
                 "_sleeps", "_sleep_hist")

    def __init__(self, config: SyncConfig, stats: StatGroup,
                 rng: random.Random, telemetry=None) -> None:
        super().__init__(config, stats, telemetry)
        self.slack = config.p2p_slack
        self.interval = config.p2p_interval
        self._rng = rng
        #: Next local-clock value at which each tile checks.
        self._next_check: Dict[TileId, int] = {}
        self._checks = stats.counter("p2p_checks")
        self._sleeps = stats.counter("p2p_sleeps")
        self._sleep_hist = stats.histogram("p2p_sleep_seconds")

    # -- scheduler hooks -------------------------------------------------------

    def on_thread_added(self, thread: "ScheduledThread") -> None:
        self._next_check[thread.tile] = thread.task.cycles + self.interval

    def on_thread_done(self, thread: "ScheduledThread") -> None:
        self._next_check.pop(thread.tile, None)

    def cycle_limit(self, thread: "ScheduledThread") -> Optional[int]:
        return self._next_check.get(thread.tile)

    def on_quantum_end(self, thread: "ScheduledThread") -> None:
        due = self._next_check.get(thread.tile)
        if due is None or thread.task.cycles < due:
            return
        self._next_check[thread.tile] = thread.task.cycles + self.interval
        self._check(thread)

    # -- the pairwise check --------------------------------------------------------

    def _progress_rate(self) -> float:
        """Simulated cycles per host second, from total progress."""
        assert self.scheduler is not None
        scheduler = self.scheduler
        wall = max(scheduler.core_time) if scheduler.core_time else 0.0
        if wall <= 0.0:
            return 0.0
        clocks = scheduler.thread_clocks()
        if not clocks:
            return 0.0
        return (sum(clocks) / len(clocks)) / wall

    #: Hard bound on one sleep, in host seconds.  The sleep formula
    #: s = c / r diverges when most threads are inactive (r collapses
    #: towards zero while the sleeper makes no progress); real Graphite
    #: sleeps in short OS-timer quanta, so a bound is implicit there.
    MAX_SLEEP_SECONDS = 2e-4

    def _check(self, thread: "ScheduledThread") -> None:
        from repro.host.scheduler import ThreadState
        assert self.scheduler is not None
        scheduler = self.scheduler
        # Only running threads are meaningful partners: a thread blocked
        # on application synchronization has a stale clock that will
        # jump forward on wake-up, and sleeping to let it "catch up"
        # deadlocks progress.
        candidates = [t for t in scheduler.threads.values()
                      if t.tile != thread.tile
                      and t.state in (ThreadState.RUNNABLE,
                                      ThreadState.RUNNING,
                                      ThreadState.SLEEPING)]
        if not candidates:
            return
        partner = self._rng.choice(candidates)
        self._checks.add()
        # The clock exchange is a system-network round trip.
        cost = scheduler.cost_model.message(
            scheduler.layout.locality(thread.tile, partner.tile))
        scheduler.charge_core_of(thread, 2 * cost)
        difference = thread.task.cycles - partner.task.cycles
        if self.telemetry is not None:
            self.telemetry.emit("p2p_check", int(thread.tile),
                                thread.task.cycles,
                                {"partner": int(partner.tile),
                                 "difference": difference})
        if difference <= self.slack:
            return
        rate = self._progress_rate()
        if rate <= 0.0:
            return
        sleep_seconds = min(difference / rate, self.MAX_SLEEP_SECONDS)
        self._sleeps.add()
        self._sleep_hist.record(sleep_seconds)
        if self.telemetry is not None:
            self.telemetry.emit("p2p_sleep", int(thread.tile),
                                thread.task.cycles,
                                {"partner": int(partner.tile),
                                 "difference": difference,
                                 "seconds": sleep_seconds})
        scheduler.sleep_thread(thread, sleep_seconds)
