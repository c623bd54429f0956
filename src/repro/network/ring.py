"""Ring and torus network models.

Paper §2: "Any network topology can be modeled as long as each tile
contains an endpoint."  These two additional topologies demonstrate the
swappable-model interface beyond the mesh family:

* ``ring`` — a 1D bidirectional ring; packets take the shorter
  direction.  Cheap switches, O(N) worst-case distance.
* ``torus`` — the mesh with wrap-around links in both dimensions;
  halves the average hop count at equal degree.
"""

from __future__ import annotations

from repro.common.config import NetworkConfig
from repro.common.ids import TileId
from repro.common.stats import StatGroup
from repro.network.mesh import serialization_cycles
from repro.network.model import NetworkModel, register_model
from repro.network.routing import MeshGeometry


@register_model("ring")
class RingNetworkModel(NetworkModel):
    """Bidirectional 1D ring, shortest-direction routing."""

    __slots__ = ("num_tiles", "hop_latency", "link_bytes_per_cycle",
                 "endpoint_latency")

    def __init__(self, num_tiles: int, config: NetworkConfig,
                 stats: StatGroup) -> None:
        super().__init__("ring", stats)
        self.num_tiles = num_tiles
        self.hop_latency = config.hop_latency
        self.link_bytes_per_cycle = config.link_bytes_per_cycle
        self.endpoint_latency = config.endpoint_latency

    def distance(self, src: TileId, dst: TileId) -> int:
        direct = abs(int(src) - int(dst))
        return min(direct, self.num_tiles - direct)

    def route(self, src: TileId, dst: TileId, size_bytes: int,
              timestamp: int) -> int:
        hops = self.distance(src, dst)
        serial = serialization_cycles(size_bytes,
                                      self.link_bytes_per_cycle)
        latency = 2 * self.endpoint_latency + hops * self.hop_latency \
            + serial
        self._packets.value += 1
        self._bytes.value += size_bytes
        self._latency.value += latency
        return latency


@register_model("torus")
class TorusNetworkModel(NetworkModel):
    """2D torus: the mesh grid with wrap-around in both dimensions."""

    __slots__ = ("geometry", "hop_latency", "link_bytes_per_cycle",
                 "endpoint_latency")

    def __init__(self, num_tiles: int, config: NetworkConfig,
                 stats: StatGroup) -> None:
        super().__init__("torus", stats)
        self.geometry = MeshGeometry(num_tiles)
        self.hop_latency = config.hop_latency
        self.link_bytes_per_cycle = config.link_bytes_per_cycle
        self.endpoint_latency = config.endpoint_latency

    def distance(self, src: TileId, dst: TileId) -> int:
        sx, sy = self.geometry.coordinates(src)
        dx, dy = self.geometry.coordinates(dst)
        width, height = self.geometry.width, self.geometry.height
        step_x = min(abs(sx - dx), width - abs(sx - dx))
        step_y = min(abs(sy - dy), height - abs(sy - dy))
        return step_x + step_y

    #: The ring's, over this model's :meth:`distance`.
    route = RingNetworkModel.route
