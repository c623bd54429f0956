"""Abstract synchronization model and factory (paper §3.6).

A synchronization model observes scheduler events (quantum boundaries,
thread lifecycle) and constrains execution to bound clock skew.  All
models build on lax synchronization — clocks otherwise run free and are
forwarded only at true interaction events.
"""

from __future__ import annotations

import random
from typing import Optional, TYPE_CHECKING

from repro.common.config import SyncConfig
from repro.common.errors import ConfigError
from repro.common.stats import StatGroup

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.host.scheduler import ScheduledThread, Scheduler
    from repro.telemetry.bus import Channel


class SynchronizationModel:
    """Base class: plain lax behaviour (no constraints)."""

    name = "lax"
    __slots__ = ("config", "stats", "telemetry", "scheduler")

    def __init__(self, config: SyncConfig, stats: StatGroup,
                 telemetry: Optional["Channel"] = None) -> None:
        self.config = config
        self.stats = stats
        #: SYNC-category telemetry channel, or ``None``.
        self.telemetry = telemetry
        self.scheduler: Optional["Scheduler"] = None

    def attach(self, scheduler: "Scheduler") -> None:
        """Called once by the scheduler that owns this model."""
        self.scheduler = scheduler

    # -- scheduler hooks; base class is pure lax (no-ops) ---------------------

    def on_thread_added(self, thread: "ScheduledThread") -> None:
        """A new application thread joined the simulation."""

    def on_thread_done(self, thread: "ScheduledThread") -> None:
        """A thread finished its program."""

    def on_thread_blocked(self, thread: "ScheduledThread") -> None:
        """A thread blocked on application synchronization."""

    def on_thread_woken(self, thread: "ScheduledThread") -> None:
        """A sleeping thread resumed (host-time sleep expired)."""

    def on_quantum_end(self, thread: "ScheduledThread") -> None:
        """A thread exhausted its quantum and remains runnable."""

    def cycle_limit(self, thread: "ScheduledThread") -> Optional[int]:
        """Absolute local-clock bound for the thread's next quantum."""
        return None

    def release_if_stalled(self) -> bool:
        """Last-resort progress hook when no thread is dispatchable.

        Returns True if the model unblocked something (e.g. released a
        barrier whose remaining participants are all blocked).
        """
        return False


def create_sync_model(config: SyncConfig, stats: StatGroup,
                      rng: Optional[random.Random] = None,
                      telemetry: Optional["Channel"] = None
                      ) -> SynchronizationModel:
    """Instantiate the configured synchronization model."""
    from repro.sync.barrier import LaxBarrierModel
    from repro.sync.lax import LaxModel
    from repro.sync.p2p import LaxP2PModel

    if config.model == "lax":
        return LaxModel(config, stats, telemetry)
    if config.model == "lax_barrier":
        return LaxBarrierModel(config, stats, telemetry)
    if config.model == "lax_p2p":
        if rng is None:
            # No caller-provided stream (direct construction in tests):
            # derive one from the named seed streams rather than a raw
            # hardcoded Random so the draw sequence matches a seed-0
            # Simulator and stays isolated from other consumers.
            from repro.common.rng import RngStreams
            rng = RngStreams(0).stream("lax_p2p")
        return LaxP2PModel(config, stats, rng, telemetry)
    raise ConfigError(f"unknown sync model {config.model!r}")
