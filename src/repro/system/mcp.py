"""The Master Control Program (paper §2.2).

There is exactly one MCP per simulation.  It owns every service that
needs a globally consistent view: the futex wait queues, the
thread-to-tile mapping, the shared file-descriptor table, and
application barrier state.  Tiles reach it over the system network
(zero modelled latency, real host transfer cost).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple, TYPE_CHECKING

from repro.common.errors import TargetFault
from repro.common.ids import TileId
from repro.common.stats import StatGroup
from repro.memory.allocator import DynamicMemoryManager
from repro.system.futex import FutexManager
from repro.system.syscalls import SyscallInterface
from repro.system.threading_api import ThreadManager

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.telemetry.bus import Channel, TelemetryBus

#: Tile hosting the MCP thread (process 0's first tile).
MCP_TILE = TileId(0)

#: Simulated cycles of barrier release bookkeeping at the MCP.
BARRIER_RELEASE_CYCLES = 30

WakeFn = Callable[[TileId, int], None]


@dataclass
class _BarrierState:
    """One application barrier, keyed by its target address."""

    total: int
    arrivals: List[Tuple[TileId, int]] = field(default_factory=list)
    generation: int = 0


class _TracedSyscalls:
    """Delegating wrapper emitting one SYSCALL event per forward.

    Wraps the MCP's :class:`SyscallInterface` when telemetry is on;
    every ``execute`` (the single entry point used by the interpreter's
    syscall forwarding) is recorded before delegation.  Syscalls carry
    no simulated clock through this interface, so events use ``t=0`` —
    identical in both backends, which is what the mp trace-equivalence
    guarantee needs.
    """

    def __init__(self, inner: SyscallInterface,
                 channel: "Channel") -> None:
        self._inner = inner
        self._tele = channel

    def execute(self, name: str, args: tuple):
        # The channel is excised to ``None`` across checkpoints; a
        # restored run keeps delegating, just unobserved.
        if self._tele is not None:
            self._tele.emit("forward", None, 0, {"name": name})
        return self._inner.execute(name, args)

    def __getattr__(self, attr: str):
        if attr.startswith("_"):
            # Unpickling probes dunders (``__setstate__``...) before
            # ``_inner`` exists; delegating those would recurse forever.
            raise AttributeError(attr)
        return getattr(self._inner, attr)


class MasterControlProgram:
    """The simulation-wide control point."""

    def __init__(self, num_tiles: int, allocator: DynamicMemoryManager,
                 wake_thread: WakeFn, stats: StatGroup,
                 telemetry: Optional["TelemetryBus"] = None) -> None:
        self.num_tiles = num_tiles
        self.futex = FutexManager(wake_thread, stats.child("futex"))
        self.threads = ThreadManager(num_tiles, wake_thread,
                                     stats.child("threads"))
        self.syscalls = SyscallInterface(allocator, stats.child("syscalls"))
        self._tele_sync = None
        if telemetry is not None:
            from repro.telemetry.events import EventCategory
            self._tele_sync = telemetry.channel(EventCategory.SYNC)
            syscall_channel = telemetry.channel(EventCategory.SYSCALL)
            if syscall_channel is not None:
                self.syscalls = _TracedSyscalls(self.syscalls,
                                                syscall_channel)
        self._wake_thread = wake_thread
        self._barriers: Dict[int, _BarrierState] = {}
        self._barrier_releases = stats.counter("barrier_releases")

    def disarm_wakes(self) -> None:
        """Drop ``wake_thread`` here and in the managers it was handed
        to, once the run is over: it is the simulator's bound method,
        and a finished run must not hold the simulator in a cycle."""
        self._wake_thread = self.futex._wake_thread = None
        self.threads._wake_thread = None

    # -- application barriers ----------------------------------------------------

    def barrier_arrive(self, address: int, total: int, tile: TileId,
                       clock: int) -> Optional[int]:
        """Register arrival at an application barrier.

        Returns the release timestamp if this arrival completes the
        barrier (the caller proceeds and everyone else has been woken),
        or None if the caller must block.
        """
        if total < 1:
            raise TargetFault("barrier needs at least one participant")
        state = self._barriers.get(address)
        if state is None:
            state = _BarrierState(total=total)
            self._barriers[address] = state
        elif state.total != total:
            raise TargetFault(
                f"barrier at {address:#x} reinitialised with a different "
                f"participant count ({state.total} vs {total})")
        if any(t == tile for t, _ in state.arrivals):
            raise TargetFault(
                f"tile {int(tile)} arrived twice at barrier {address:#x}")
        state.arrivals.append((tile, clock))
        if len(state.arrivals) < state.total:
            return None
        release = max(c for _, c in state.arrivals) + BARRIER_RELEASE_CYCLES
        for t, _ in state.arrivals:
            if t != tile:
                self._wake_thread(t, release)
        state.arrivals.clear()
        state.generation += 1
        self._barrier_releases.add()
        return release

    def barrier_is_waiting(self, address: int, tile: TileId) -> bool:
        """Whether ``tile`` is still registered (not yet released)."""
        state = self._barriers.get(address)
        if state is None:
            return False
        return any(t == tile for t, _ in state.arrivals)
