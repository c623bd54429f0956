"""Windowed approximation of global simulation progress.

Under lax synchronization there is no global cycle count, yet queue
models need a reference "global clock" — particularly on tiles with no
active thread, which still serve as memory controllers and network
switches.  The paper's solution (§3.6.1): keep a window of the most
recently seen message timestamps, on the order of the number of tiles,
and use their average.  Messages are frequent (every cache miss), so the
window stays current; its size suppresses outliers.
"""

from __future__ import annotations

from collections import deque
from typing import Deque


class ProgressEstimator:
    """Sliding-window average of observed message timestamps."""

    __slots__ = ("window_size", "_window", "_sum")

    def __init__(self, window_size: int) -> None:
        if window_size < 1:
            raise ValueError("progress window must hold at least one sample")
        self.window_size = window_size
        self._window: Deque[int] = deque(maxlen=window_size)
        self._sum = 0

    def observe(self, timestamp: int) -> float:
        """Record a message timestamp; returns the new :meth:`estimate`."""
        if len(self._window) == self.window_size:
            self._sum -= self._window[0]
        self._window.append(timestamp)
        self._sum += timestamp
        return self._sum / len(self._window)

    def estimate(self) -> float:
        """Current approximation of the global cycle count (0 if empty)."""
        if not self._window:
            return 0.0
        return self._sum / len(self._window)

    @property
    def samples(self) -> int:
        return len(self._window)
