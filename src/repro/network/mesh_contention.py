"""Mesh model with analytical contention.

"Another mesh model ... tracks global network utilization to determine
latency using an analytical contention model" (paper §3.3).  Each
directed link owns an independent queue clock following the lax queueing
model of §3.6.1: a packet's contention delay on a link is the difference
between the link's queue clock and the windowed global-progress
estimate, and the queue clock then advances by the packet's
serialization time.  Because packets are modelled out of simulated-time
order the per-packet delay is approximate, but aggregate utilization —
and therefore aggregate latency — is preserved.
"""

from __future__ import annotations

from typing import Dict

from repro.common.config import NetworkConfig
from repro.common.ids import TileId
from repro.common.stats import StatGroup
from repro.network.mesh import serialization_cycles
from repro.network.model import NetworkModel, register_model
from repro.network.routing import MeshGeometry
from repro.sync.progress import ProgressEstimator
from repro.sync.queue_model import LaxQueueModel


@register_model("mesh_contention")
class ContentionMeshNetworkModel(NetworkModel):
    """Mesh with per-link lax queue clocks modelling contention."""

    __slots__ = ("geometry", "hop_latency", "link_bytes_per_cycle",
                 "endpoint_latency", "progress", "_queue_stats", "_links",
                 "_contention")

    def __init__(self, num_tiles: int, config: NetworkConfig,
                 stats: StatGroup) -> None:
        super().__init__("mesh_contention", stats)
        self.geometry = MeshGeometry(num_tiles)
        self.hop_latency = config.hop_latency
        self.link_bytes_per_cycle = config.link_bytes_per_cycle
        self.endpoint_latency = config.endpoint_latency
        window = max(num_tiles * config.progress_window_factor, 8)
        self.progress = ProgressEstimator(window)
        self._queue_stats = stats.child("links")
        self._links: Dict[int, LaxQueueModel] = {}
        self._contention = stats.counter("contention_cycles")

    def _link(self, link_id: int) -> LaxQueueModel:
        model = self._links.get(link_id)
        if model is None:
            model = LaxQueueModel(self.progress, self._queue_stats)
            self._links[link_id] = model
        return model

    def route(self, src: TileId, dst: TileId, size_bytes: int,
              timestamp: int) -> int:
        serial = serialization_cycles(size_bytes, self.link_bytes_per_cycle)
        latency = 2 * self.endpoint_latency
        time = timestamp + latency
        hops = 0
        total_contention = 0
        for link_id in self.geometry.route(src, dst):
            occupancy = self._link(link_id).access(time, serial)
            contention = occupancy - serial
            latency += self.hop_latency + occupancy
            time += self.hop_latency + occupancy
            hops += 1
            if contention > 0:
                self._contention.add(contention)
                total_contention += contention
        # Same-tile traffic (src == dst) has no links; charge endpoints only.
        if self.telemetry is not None:
            self.telemetry.emit("route", int(src), timestamp,
                                {"dst": int(dst), "hops": hops,
                                 "contention": total_contention,
                                 "latency": latency})
        self._packets.value += 1
        self._bytes.value += size_bytes
        self._latency.value += latency
        return latency
