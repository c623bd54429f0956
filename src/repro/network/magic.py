"""The zero-delay ("magic") network model.

Forwards packets with no modelled delay.  Used for system traffic so
that simulator-internal messages (MCP/LCP control, syscall forwarding)
have no impact on simulation results (paper §3.3).
"""

from __future__ import annotations

from repro.common.config import NetworkConfig
from repro.common.ids import TileId
from repro.common.stats import StatGroup
from repro.network.model import NetworkModel, register_model


@register_model("magic")
class MagicNetworkModel(NetworkModel):
    """All packets arrive with zero latency."""

    __slots__ = ()

    def __init__(self, num_tiles: int, config: NetworkConfig,
                 stats: StatGroup) -> None:
        super().__init__("magic", stats)
        del num_tiles, config  # geometry-independent

    def route(self, src: TileId, dst: TileId, size_bytes: int,
              timestamp: int) -> int:
        self._packets.value += 1
        self._bytes.value += size_bytes
        return 0
