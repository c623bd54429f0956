"""Distributed thread spawn/join management (paper §3.5).

Spawn calls are intercepted at the caller and forwarded to the MCP to
keep the thread-to-tile mapping consistent; the MCP chooses an
available tile and forwards the request to the LCP of the process that
owns it.  Threads are long-lived (they run to completion without being
swapped out) and the number of live threads may never exceed the number
of target tiles.  Join synchronizes through the MCP and forwards the
joiner's clock to the joined thread's final clock.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.common.errors import TargetFault
from repro.common.ids import TileId
from repro.common.stats import StatGroup

#: Callback waking a blocked thread: (tile, wake_timestamp_cycles).
WakeFn = Callable[[TileId, int], None]


class ThreadManager:
    """MCP-side bookkeeping of the thread-to-tile mapping."""

    def __init__(self, num_tiles: int, wake_thread: WakeFn,
                 stats: StatGroup) -> None:
        self.num_tiles = num_tiles
        self._wake_thread = wake_thread
        self._live: Dict[TileId, bool] = {}
        #: Final simulated clock of finished threads.
        self._final_clock: Dict[TileId, int] = {}
        #: tiles of threads waiting to join a given child tile.
        self._joiners: Dict[TileId, List[TileId]] = {}
        self._spawned = stats.counter("threads_spawned")
        self._joined = stats.counter("threads_joined")

    # -- spawn -------------------------------------------------------------------

    def allocate_tile(self) -> TileId:
        """Pick an available tile for a new thread (MCP's choice)."""
        for t in range(self.num_tiles):
            tile = TileId(t)
            if not self._live.get(tile, False) and \
                    tile not in self._final_clock:
                return tile
        # Allow reuse of tiles whose previous thread completed.
        for t in range(self.num_tiles):
            tile = TileId(t)
            if not self._live.get(tile, False):
                self._final_clock.pop(tile, None)
                return tile
        raise TargetFault(
            "thread limit reached: the maximum number of threads may "
            "not exceed the total number of tiles")

    def register_spawn(self, tile: TileId) -> None:
        self._live[tile] = True
        self._spawned.add()

    # -- exit / join ----------------------------------------------------------------

    def on_thread_exit(self, tile: TileId, final_clock: int) -> None:
        """A thread finished; wake anyone joining it."""
        self._live[tile] = False
        self._final_clock[tile] = final_clock
        for joiner in self._joiners.pop(tile, []):
            self._wake_thread(joiner, final_clock)
        self._joined.add()

    def try_join(self, joiner: TileId, target: TileId
                 ) -> Optional[int]:
        """Join attempt: final clock if ``target`` finished, else None.

        On None the caller blocks; it is registered and will be woken
        with the child's final clock.
        """
        if target == joiner:
            raise TargetFault("a thread cannot join itself")
        final = self._final_clock.get(target)
        if final is not None:
            return final
        if not self._live.get(target, False):
            raise TargetFault(
                f"join of tile {int(target)} which was never spawned")
        self._joiners.setdefault(target, []).append(joiner)
        return None

    def final_clock(self, tile: TileId) -> Optional[int]:
        """Final clock of a finished thread, or None if still running."""
        return self._final_clock.get(tile)

    # -- introspection ------------------------------------------------------------------

    def live_count(self) -> int:
        return sum(1 for alive in self._live.values() if alive)
