"""Futex emulation at the MCP (paper §3.4).

System calls used to implement synchronization between threads, such as
``futex``, are intercepted and forwarded to the MCP, where Graphite
emulates their behaviour.  The manager keeps one wait queue per target
address; wakes carry the waker's simulated timestamp so woken threads
forward their clocks (lax synchronization's only coupling between
tiles).

The engine is single-threaded, so the check-value-then-sleep sequence
is atomic and the classic lost-wakeup race cannot occur.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, List

from repro.common.ids import TileId
from repro.common.stats import StatGroup

#: Callback waking a blocked thread: (tile, wake_timestamp_cycles).
WakeFn = Callable[[TileId, int], None]


class FutexManager:
    """Wait queues keyed by target address, with timestamped wakes."""

    def __init__(self, wake_thread: WakeFn, stats: StatGroup) -> None:
        self._wake_thread = wake_thread
        self._queues: Dict[int, Deque[TileId]] = {}
        self._waits = stats.counter("futex_waits")
        self._wakes = stats.counter("futex_wakes")

    def wait(self, address: int, tile: TileId) -> None:
        """Enqueue ``tile`` on the futex at ``address``.

        The caller has already checked the futex value and decided to
        sleep; the interpreter blocks the thread after this returns.
        """
        queue = self._queues.get(address)
        if queue is None:
            queue = deque()
            self._queues[address] = queue
        if tile not in queue:
            queue.append(tile)
        self._waits.add()

    def wake(self, address: int, count: int, timestamp: int) -> List[TileId]:
        """Wake up to ``count`` waiters; returns the tiles woken.

        Waiters wake in FIFO order, each with the waker's timestamp so
        their clocks forward correctly.
        """
        queue = self._queues.get(address)
        woken: List[TileId] = []
        while queue and count > 0:
            tile = queue.popleft()
            self._wake_thread(tile, timestamp)
            woken.append(tile)
            count -= 1
            self._wakes.add()
        if queue is not None and not queue:
            del self._queues[address]
        return woken

    def cancel(self, address: int, tile: TileId) -> None:
        """Remove ``tile`` from a wait queue (thread torn down)."""
        queue = self._queues.get(address)
        if queue and tile in queue:
            queue.remove(tile)
            if not queue:
                del self._queues[address]

    def waiters(self, address: int) -> int:
        return len(self._queues.get(address, ()))
