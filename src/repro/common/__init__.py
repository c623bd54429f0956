"""Shared infrastructure: configuration, units, RNG streams, statistics.

These utilities underpin every other subpackage.  Nothing in here knows
about simulation semantics; it is deliberately dependency-free.
"""

import copyreg
from typing import Any

from repro.common.config import (
    CacheConfig,
    CoreConfig,
    DramConfig,
    HostConfig,
    MemoryConfig,
    NetworkConfig,
    SimulationConfig,
    SyncConfig,
)
from repro.common.errors import (
    ConfigError,
    DeadlockError,
    SimulationError,
    TargetFault,
)
from repro.common.ids import CoreId, ProcessId, ThreadId, TileId
from repro.common.rng import RngStreams
from repro.common.stats import Counter, Histogram, StatGroup, TimeSeries


def slot_state(obj: Any) -> dict:
    """``{slot: value}`` over ``obj``'s class and bases for a ``__getstate__``
    to edit, ``obj.__dict__`` unread (see :mod:`repro.ckpt.snapshot`)."""
    return {name: getattr(obj, name)
            for name in copyreg._slotnames(type(obj))
            if hasattr(obj, name)}


__all__ = [
    "CacheConfig",
    "ConfigError",
    "CoreConfig",
    "CoreId",
    "Counter",
    "DeadlockError",
    "DramConfig",
    "Histogram",
    "HostConfig",
    "MemoryConfig",
    "NetworkConfig",
    "ProcessId",
    "RngStreams",
    "SimulationConfig",
    "SimulationError",
    "StatGroup",
    "SyncConfig",
    "TargetFault",
    "ThreadId",
    "TileId",
    "TimeSeries",
    "slot_state",
]
