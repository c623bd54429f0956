"""Load/store unit models: a store buffer and a load queue.

The paper's in-order core has an out-of-order memory system: "store
buffers, load units ... are all modeled and configurable" (§3.1).  The
store buffer lets stores retire without stalling until it fills; the
load queue bounds outstanding loads and supports store-to-load
forwarding from buffered stores.

:meth:`repro.core.perf_model.CorePerfModel.retire` works both inline,
a whole run of loads and stores per call; :meth:`StoreBuffer.issue`,
:meth:`StoreBuffer.forwards` and :meth:`LoadQueue.issue` state the
same rules one access at a time, and ``tests/core/test_retire.py``
holds the two equal.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Tuple

from repro.common.stats import StatGroup


class StoreBuffer:
    """FIFO of in-flight stores, each occupying a slot until completion.

    A store issued at time ``t`` with memory latency ``l`` holds its slot
    until ``t + l``.  When the buffer is full the pipeline stalls until
    the oldest store drains.
    """

    __slots__ = ("entries", "_inflight", "_stalls", "_stores")

    def __init__(self, entries: int, stats: StatGroup) -> None:
        if entries < 1:
            raise ValueError("store buffer needs at least one entry")
        self.entries = entries
        #: (completion_time, line_address) of each in-flight store.
        self._inflight: Deque[Tuple[int, int]] = deque()
        self._stalls = stats.counter("store_buffer_stall_cycles")
        self._stores = stats.counter("stores_buffered")

    def _drain(self, now: int) -> None:
        while self._inflight and self._inflight[0][0] <= now:
            self._inflight.popleft()

    def issue(self, now: int, address: int, latency: int) -> int:
        """Issue a store; returns the stall in cycles (0 if buffered)."""
        inflight = self._inflight
        while inflight and inflight[0][0] <= now:  # _drain, inline
            inflight.popleft()
        stall = 0
        if len(inflight) >= self.entries:
            # Stall until the oldest store completes.
            completion = inflight[0][0]
            stall = max(completion - now, 0)
            now += stall
            self._drain(now)
            self._stalls.add(stall)
        inflight.append((now + latency, address))
        self._stores.value += 1
        return stall

    def forwards(self, address: int) -> bool:
        """True when a buffered store can forward data at ``address``."""
        for _, buffered in self._inflight:
            if buffered == address:
                return True
        return False

    def occupancy(self, now: int) -> int:
        self._drain(now)
        return len(self._inflight)


class LoadQueue:
    """Bounds the number of loads in flight.

    The functional front-end needs each load's value immediately, so the
    in-order model charges the full load latency; the queue adds a
    structural stall when too many loads are outstanding in the same
    window (approximating a limited load unit).
    """

    __slots__ = ("entries", "_inflight", "_stalls", "_loads")

    def __init__(self, entries: int, stats: StatGroup) -> None:
        if entries < 1:
            raise ValueError("load queue needs at least one entry")
        self.entries = entries
        self._inflight: Deque[int] = deque()  # completion times
        self._stalls = stats.counter("load_queue_stall_cycles")
        self._loads = stats.counter("loads_issued")

    def _drain(self, now: int) -> None:
        while self._inflight and self._inflight[0] <= now:
            self._inflight.popleft()

    def issue(self, now: int, latency: int) -> int:
        """Issue a load; returns the structural stall in cycles."""
        inflight = self._inflight
        while inflight and inflight[0] <= now:  # _drain, inline
            inflight.popleft()
        stall = 0
        if len(inflight) >= self.entries:
            completion = inflight[0]
            stall = max(completion - now, 0)
            now += stall
            self._drain(now)
            self._stalls.add(stall)
        inflight.append(now + latency)
        self._loads.value += 1
        return stall
