"""Contention-free mesh model.

Latency is determined purely by the number of network hops plus
serialization over the configured link width (paper §3.3: "a mesh model
that uses the number of network hops to determine latency").
"""

from __future__ import annotations

from repro.common.config import NetworkConfig
from repro.common.ids import TileId
from repro.common.stats import StatGroup
from repro.network.model import NetworkModel, register_model
from repro.network.routing import MeshGeometry


def serialization_cycles(size_bytes: int, link_bytes_per_cycle: int) -> int:
    """Cycles to push a packet of ``size_bytes`` onto one link."""
    if size_bytes <= 0:
        return 0
    return -(-size_bytes // link_bytes_per_cycle)  # ceil division


@register_model("mesh")
class MeshNetworkModel(NetworkModel):
    """Hop-count mesh: fixed per-hop latency, no contention."""

    __slots__ = ("geometry", "hop_latency", "link_bytes_per_cycle",
                 "endpoint_latency")

    def __init__(self, num_tiles: int, config: NetworkConfig,
                 stats: StatGroup) -> None:
        super().__init__("mesh", stats)
        self.geometry = MeshGeometry(num_tiles)
        self.hop_latency = config.hop_latency
        self.link_bytes_per_cycle = config.link_bytes_per_cycle
        self.endpoint_latency = config.endpoint_latency

    def route(self, src: TileId, dst: TileId, size_bytes: int,
              timestamp: int) -> int:
        """One frame: ``MeshGeometry.distance`` and
        :func:`serialization_cycles` spelled inline."""
        width = self.geometry.width
        hops = (abs(src % width - dst % width)
                + abs(src // width - dst // width))
        serial = (-(-size_bytes // self.link_bytes_per_cycle)
                  if size_bytes > 0 else 0)
        latency = (2 * self.endpoint_latency + hops * self.hop_latency
                   + serial)
        if self.telemetry is not None:
            self.telemetry.emit("route", int(src), timestamp,
                                {"dst": int(dst), "hops": hops,
                                 "serialization": serial,
                                 "latency": latency})
        self._packets.value += 1
        self._bytes.value += size_bytes
        self._latency.value += latency
        return latency
