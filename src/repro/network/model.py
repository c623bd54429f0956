"""Abstract network model interface and registry.

"Each network model shares a common interface.  Therefore, network model
implementations are swappable, and it is simple to develop new network
models" (paper §3.3).  A model's single job is to compute the modelled
latency of a packet — routing plus contention — given its source,
destination, size and timestamp.
"""

from __future__ import annotations

import abc
from typing import Callable, Dict

from repro.common.config import NetworkConfig
from repro.common.errors import ConfigError
from repro.common.ids import TileId
from repro.common.stats import StatGroup


class NetworkModel(abc.ABC):
    """Computes modelled packet latency for one traffic class."""

    __slots__ = ("name", "stats", "telemetry", "_packets", "_bytes",
                 "_latency")

    def __init__(self, name: str, stats: StatGroup) -> None:
        self.name = name
        self.stats = stats
        #: NETWORK-category telemetry channel; the owning fabric sets
        #: this after construction (``None`` = tracing disabled).
        self.telemetry = None
        self._packets = stats.counter("packets")
        self._bytes = stats.counter("bytes")
        self._latency = stats.counter("total_latency_cycles")

    @abc.abstractmethod
    def route(self, src: TileId, dst: TileId, size_bytes: int,
              timestamp: int) -> int:
        """Return the packet's modelled latency in cycles; the model
        itself counts the packet, its bytes and that latency."""

    @property
    def mean_latency(self) -> float:
        n = self._packets.value
        return self._latency.value / n if n else 0.0


#: Model constructors: (num_tiles, config, stats) -> NetworkModel.
ModelFactory = Callable[[int, NetworkConfig, StatGroup], NetworkModel]

_REGISTRY: Dict[str, ModelFactory] = {}


def register_model(name: str) -> Callable[[ModelFactory], ModelFactory]:
    """Class decorator registering a network model under ``name``."""

    def decorate(factory: ModelFactory) -> ModelFactory:
        _REGISTRY[name] = factory
        return factory

    return decorate


def create_network_model(name: str, num_tiles: int, config: NetworkConfig,
                         stats: StatGroup) -> NetworkModel:
    """Instantiate a registered network model by name."""
    # Import implementations lazily so registration happens on demand
    # without import cycles.
    from repro.network import (  # noqa: F401
        magic,
        mesh,
        mesh_contention,
        ring,
    )

    factory = _REGISTRY.get(name)
    if factory is None:
        raise ConfigError(f"unknown network model {name!r}; "
                          f"known: {sorted(_REGISTRY)}")
    return factory(num_tiles, config, stats)
