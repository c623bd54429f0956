"""Quanta-based barrier synchronization — LaxBarrier (paper §3.6.2).

All active threads wait on a barrier after a configurable number of
cycles.  Very frequent barriers closely approximate cycle-accurate
simulation, which is why LaxBarrier serves as the accuracy baseline for
the paper's error measurements; the price is performance and (because a
global barrier is inherently centralized) scalability.

Threads blocked on *application* synchronization are not barrier
participants — they may be waiting on a lock held by a thread that is
itself parked at the barrier, so requiring them would deadlock.
"""

from __future__ import annotations

from typing import Dict, Optional, TYPE_CHECKING

from repro.common.config import SyncConfig
from repro.common.stats import StatGroup
from repro.sync.model import SynchronizationModel
from repro.system.mcp import MCP_TILE

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.host.scheduler import ScheduledThread


class LaxBarrierModel(SynchronizationModel):
    """Barrier every ``barrier_interval`` simulated cycles."""

    name = "lax_barrier"
    __slots__ = ("interval", "epoch_end", "_waiting", "_barriers", "_arrivals")

    def __init__(self, config: SyncConfig, stats: StatGroup,
                 telemetry=None) -> None:
        super().__init__(config, stats, telemetry)
        self.interval = config.barrier_interval
        #: End of the current epoch; threads stop here.
        self.epoch_end = config.barrier_interval
        # Dict-as-ordered-set: _release charges a per-waiter message
        # cost in iteration order, so order must be arrival order, not
        # hash order (determinism lint D003).
        self._waiting: Dict[TileId, None] = {}
        self._barriers = stats.counter("barriers_released")
        self._arrivals = stats.counter("barrier_arrivals")

    # -- scheduler hooks -------------------------------------------------------

    def cycle_limit(self, thread: "ScheduledThread") -> Optional[int]:
        return self.epoch_end

    def on_quantum_end(self, thread: "ScheduledThread") -> None:
        if thread.task.cycles >= self.epoch_end:
            self._arrive(thread)

    def on_thread_blocked(self, thread: "ScheduledThread") -> None:
        # A thread leaving the active set may be the one everyone was
        # waiting for.
        self._maybe_release()

    def on_thread_done(self, thread: "ScheduledThread") -> None:
        self._waiting.pop(thread.tile, None)
        self._maybe_release()

    def on_thread_added(self, thread: "ScheduledThread") -> None:
        # A newly spawned thread starts at (roughly) its parent's clock;
        # it simply participates from the current epoch onward.
        pass

    def release_if_stalled(self) -> bool:
        return self._release() if self._waiting else False

    # -- barrier mechanics --------------------------------------------------------

    def _arrive(self, thread: "ScheduledThread") -> None:
        assert self.scheduler is not None
        scheduler = self.scheduler
        self._waiting[thread.tile] = None
        self._arrivals.add()
        if self.telemetry is not None:
            self.telemetry.emit("barrier_arrive", int(thread.tile),
                                thread.task.cycles,
                                {"epoch_end": self.epoch_end,
                                 "waiting": len(self._waiting)})
        scheduler.park_for_barrier(thread)
        # The gather message to the MCP travels over the system network;
        # charge its host transfer cost to the arriving thread's core.
        cost = scheduler.cost_model.message(
            scheduler.layout.locality(thread.tile, MCP_TILE))
        scheduler.charge_core_of(thread, cost)
        self._maybe_release()

    def _active_threads(self) -> list:
        from repro.host.scheduler import ThreadState
        assert self.scheduler is not None
        return [t for t in self.scheduler.threads.values()
                if t.state not in (ThreadState.DONE, ThreadState.BLOCKED)]

    def _maybe_release(self) -> None:
        if not self._waiting:
            return
        from repro.host.scheduler import ThreadState
        active = self._active_threads()
        if all(t.state is ThreadState.BARRIER_WAIT for t in active):
            self._release()

    def _release(self) -> bool:
        """Open the barrier: advance the epoch and wake all waiters."""
        assert self.scheduler is not None
        scheduler = self.scheduler
        if not self._waiting:
            return False
        # The barrier completes when the last participant arrives: no
        # core may proceed before the slowest one got here.
        release_time = max(
            scheduler.core_time[int(scheduler.layout.core_of_tile(t))]
            for t in self._waiting)
        if self.telemetry is not None:
            self.telemetry.emit("barrier_release", None, self.epoch_end,
                                {"waiters": len(self._waiting),
                                 "next_epoch": self.epoch_end
                                 + self.interval})
        self.epoch_end += self.interval
        waiters, self._waiting = self._waiting, {}
        for tile in waiters:
            thread = scheduler.threads[tile]
            from repro.host.scheduler import ThreadState
            if thread.state is ThreadState.BARRIER_WAIT:
                thread.state = ThreadState.RUNNABLE
                # Release broadcast from the MCP, one message per waiter.
                cost = scheduler.cost_model.message(
                    scheduler.layout.locality(MCP_TILE, tile))
                thread.ready_host_time = release_time + cost
        self._barriers.add()
        return True
