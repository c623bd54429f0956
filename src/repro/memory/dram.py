"""DRAM controller model.

The default target architecture places a memory controller at every
tile, evenly splitting total off-chip bandwidth (paper §4.4): with
``n`` tiles each controller serves ``total_bandwidth / n``.  As the
tile count grows, per-controller bandwidth shrinks and the service time
of each request grows — one of the two effects behind the flattening
speedup curves of Figure 9 (the other being network distance).

Queueing delay is modelled with the lax-compatible queue model of
§3.6.1: an independent queue clock compared against the windowed
global-progress estimate.
"""

from __future__ import annotations

from typing import Optional, TYPE_CHECKING

from repro.common.config import DramConfig
from repro.common.ids import TileId
from repro.common.stats import StatGroup
from repro.sync.progress import ProgressEstimator
from repro.sync.queue_model import LaxQueueModel

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.telemetry.bus import Channel


class DramController:
    """One tile's slice of the off-chip memory interface."""

    __slots__ = ("tile", "config", "bytes_per_cycle", "queue", "_tele",
                 "_reads", "_writes", "_read_latency")

    def __init__(self, tile: TileId, config: DramConfig, num_tiles: int,
                 clock_hz: int, progress: ProgressEstimator,
                 stats: StatGroup,
                 telemetry: Optional["Channel"] = None) -> None:
        config.validate()
        self.tile = tile
        self.config = config
        #: Bytes per target cycle this controller can move — the static
        #: partition of total off-chip bandwidth.
        self.bytes_per_cycle = (config.total_bandwidth_bytes_per_s
                                / clock_hz / num_tiles)
        self.queue = LaxQueueModel(progress, stats)
        #: DRAM-category telemetry channel, or ``None``.
        self._tele = telemetry
        self._reads = stats.counter("reads")
        self._writes = stats.counter("writes")
        self._read_latency = stats.counter("read_latency_cycles")

    def service_cycles(self, size_bytes: int) -> int:
        """Cycles the channel is busy transferring ``size_bytes``."""
        return max(int(round(size_bytes / self.bytes_per_cycle)), 1)

    def read(self, timestamp: int, size_bytes: int) -> int:
        """Latency of a read: fixed access latency + queue + transfer."""
        occupancy = self.queue.access(timestamp, self.service_cycles(size_bytes))
        latency = self.config.access_latency + occupancy
        self._reads.value += 1
        self._read_latency.value += latency
        if self._tele is not None:
            self._tele.emit("read", int(self.tile), timestamp,
                            {"occupancy": occupancy, "latency": latency,
                             "bytes": size_bytes})
        return latency

    def post_write(self, timestamp: int, size_bytes: int) -> None:
        """A posted write(back): consumes bandwidth, off the critical path."""
        occupancy = self.queue.access(timestamp,
                                      self.service_cycles(size_bytes))
        self._writes.value += 1
        if self._tele is not None:
            self._tele.emit("write", int(self.tile), timestamp,
                            {"occupancy": occupancy, "bytes": size_bytes})
