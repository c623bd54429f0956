"""The network component: multiplexing, delivery, per-tile interfaces.

The network separates *functionality* from *modeling* (paper §3.3): this
module provides the common functionality — packet bundling, multiplexing
of traffic classes, the high-level interface to the rest of the system,
and the internal interface to the transport layer — while the network
models (selected per traffic class) compute timestamps.  Regardless of a
packet's timestamp, it is forwarded immediately and delivered in the
order received; packets may therefore arrive "early" in simulated time.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, TYPE_CHECKING

from repro.common.config import NetworkConfig
from repro.common.ids import TileId
from repro.common.stats import StatGroup
from repro.network.model import NetworkModel, create_network_model
from repro.transport.message import Message, MessageKind
from repro.transport.transport import Transport

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.telemetry.bus import TelemetryBus


class NetworkFabric:
    """All network models plus the shared transport, for one simulation."""

    __slots__ = ("num_tiles", "config", "transport", "stats", "_tele",
                 "functional", "models")

    def __init__(self, num_tiles: int, config: NetworkConfig,
                 transport: Transport, stats: StatGroup,
                 telemetry: Optional["TelemetryBus"] = None) -> None:
        self.num_tiles = num_tiles
        self.transport = transport
        self.stats = stats
        self._tele = None
        if telemetry is not None:
            from repro.telemetry.events import EventCategory
            self._tele = telemetry.channel(EventCategory.NETWORK)
        #: Functional fast-forward (:mod:`repro.sample`): packets still
        #: deliver through the transport (functionality), but the
        #: network models are bypassed — zero latency, no contention
        #: state, no bandwidth accounting (modeling).
        self.functional = False
        self.build_models(config)

    def build_models(self, config: NetworkConfig) -> None:
        """Make ``config`` the fabric's, with a fresh model per class.

        Each traffic class gets its own independently configured model
        instance — separate models for application and memory traffic,
        as commonly done in multicore chips (paper §3.3).  Each model's
        stat subtree starts fresh too, so a library fork re-dressing a
        restored fabric for its variant's network (nothing routed
        during fast-forward) matches a fresh build exactly.
        """
        config.validate()
        self.config = config
        model_names = {
            MessageKind.USER: config.user_model,
            MessageKind.MEMORY: config.memory_model,
            MessageKind.SYSTEM: config.system_model,
        }
        for kind in model_names:
            self.stats.children.pop(f"{kind.value}_net", None)
        self.models: Dict[MessageKind, NetworkModel] = {
            kind: create_network_model(
                name, self.num_tiles, config,
                self.stats.child(f"{kind.value}_net"))
            for kind, name in model_names.items()
        }
        for model in self.models.values():
            model.telemetry = self._tele

    def send(self, src: TileId, dst: TileId, kind: MessageKind,
             payload: Any = None, size_bytes: int = 8, timestamp: int = 0,
             tag: Optional[int] = None) -> Message:
        """Route, timestamp and deliver one packet; returns the message."""
        if self.functional:
            message = Message(src=src, dst=dst, kind=kind, payload=payload,
                              size_bytes=size_bytes, timestamp=timestamp,
                              arrival_time=timestamp, tag=tag)
            self.transport.send(message)
            return message
        latency = self.models[kind].route(src, dst, size_bytes, timestamp)
        message = Message(src=src, dst=dst, kind=kind, payload=payload,
                          size_bytes=size_bytes, timestamp=timestamp,
                          arrival_time=timestamp + latency, tag=tag)
        if self._tele is not None:
            self._tele.emit("msg", int(src), timestamp,
                            {"src": int(src), "dst": int(dst),
                             "kind": kind.value, "bytes": size_bytes,
                             "latency": latency})
        self.transport.send(message)
        return message

    def transfer(self, src: TileId, dst: TileId, kind: MessageKind,
                 size_bytes: int, timestamp: int) -> int:
        """Model a transfer that the engine services synchronously.

        Returns the modelled network latency in cycles.  Used for
        coherence protocol legs and system control traffic, which are
        functionally processed inline at the destination rather than
        queued (paper §3.3: messages are forwarded immediately).  All
        statistics and host-cost accounting still apply.
        """
        if self.functional:
            return 0
        latency = self.models[kind].route(src, dst, size_bytes, timestamp)
        if self._tele is not None:
            self._tele.emit("msg", int(src), timestamp,
                            {"src": int(src), "dst": int(dst),
                             "kind": kind.value, "bytes": size_bytes,
                             "latency": latency})
        self.transport.account(src, dst, kind, size_bytes)
        return latency

    def interface(self, tile: TileId) -> "NetworkInterface":
        """Per-tile endpoint view of the fabric."""
        return NetworkInterface(tile, self)


class NetworkInterface:
    """One tile's endpoint: send plus receive-side polling."""

    __slots__ = ("tile", "fabric")

    def __init__(self, tile: TileId, fabric: NetworkFabric) -> None:
        self.tile = tile
        self.fabric = fabric

    def send(self, dst: TileId, payload: Any = None,
             kind: MessageKind = MessageKind.USER, size_bytes: int = 8,
             timestamp: int = 0, tag: Optional[int] = None) -> Message:
        return self.fabric.send(self.tile, dst, kind, payload, size_bytes,
                                timestamp, tag)

    def poll(self, kind: MessageKind) -> Optional[Message]:
        return self.fabric.transport.poll(self.tile, kind)

    def poll_match(self, kind: MessageKind, src: Optional[TileId] = None,
                   tag: Optional[int] = None) -> Optional[Message]:
        return self.fabric.transport.poll_match(self.tile, kind, src, tag)

    def pending(self, kind: MessageKind) -> int:
        return self.fabric.transport.pending(self.tile, kind)
