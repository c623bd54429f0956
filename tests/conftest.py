"""Shared fixtures for the test suite."""

from __future__ import annotations

import subprocess
import sys

import pytest

from repro.common.config import SimulationConfig
from repro.common.ids import TileId
from repro.common.stats import StatGroup
from repro.host.cluster import ClusterLayout
from repro.memory.address import AddressSpace
from repro.memory.backing import BackingStore
from repro.memory.coherence import CoherenceEngine
from repro.memory.controller import MemoryController
from repro.memory.miss_classifier import MissClassifier
from repro.network.interface import NetworkFabric
from repro.transport.transport import Transport


@pytest.fixture
def config() -> SimulationConfig:
    """A small validated default configuration (8 tiles, 1 machine)."""
    cfg = SimulationConfig(num_tiles=8)
    cfg.validate()
    return cfg


class MemoryRig:
    """A fully wired memory system without scheduler or interpreters.

    Lets memory tests drive loads/stores from arbitrary tiles directly.
    """

    def __init__(self, config: SimulationConfig,
                 classify: bool = False) -> None:
        self.config = config
        self.stats = StatGroup("rig")
        self.layout = ClusterLayout(config.num_tiles, config.host)
        self.transport = Transport(self.layout,
                                   self.stats.child("transport"))
        self.fabric = NetworkFabric(config.num_tiles, config.network,
                                    self.transport,
                                    self.stats.child("network"))
        line = config.memory.l2.line_bytes
        self.space = AddressSpace(config.num_tiles, line)
        self.backing = BackingStore(line)
        self.classifier = (MissClassifier(config.num_tiles, line,
                                          self.stats.child("cls"))
                           if classify else None)
        self.engine = CoherenceEngine(
            config.num_tiles, config.memory, self.space, self.backing,
            self.fabric, config.core.clock_hz, self.stats.child("mem"),
            self.classifier)
        self.controllers = [
            MemoryController(TileId(t), self.engine, [],
                             self.stats.child(f"mc{t}"))
            for t in range(config.num_tiles)]

    def load(self, tile: int, address: int, size: int = 8,
             clock: int = 0):
        return self.controllers[tile].load(address, size, clock)

    def store(self, tile: int, address: int, data: bytes,
              clock: int = 0) -> int:
        return self.controllers[tile].store(address, data, clock)

    def store_int(self, tile: int, address: int, value: int,
                  clock: int = 0) -> int:
        return self.store(tile, address, value.to_bytes(8, "little"),
                          clock)

    def load_int(self, tile: int, address: int, clock: int = 0):
        data, latency = self.load(tile, address, 8, clock)
        return int.from_bytes(data, "little"), latency


@pytest.fixture
def memory_rig(config) -> MemoryRig:
    return MemoryRig(config)


@pytest.fixture
def classifying_rig(config) -> MemoryRig:
    return MemoryRig(config, classify=True)


def tiny_config(num_tiles: int = 4, **host_kwargs) -> SimulationConfig:
    """A fast configuration for full-simulation tests."""
    cfg = SimulationConfig(num_tiles=num_tiles)
    for key, value in host_kwargs.items():
        setattr(cfg.host, key, value)
    cfg.host.quantum_instructions = 200
    cfg.validate()
    return cfg


def dead_pid() -> int:
    """The pid of a process that has exited and been reaped."""
    child = subprocess.run(
        [sys.executable, "-c", "import os; print(os.getpid())"],
        capture_output=True, text=True, check=True)
    return int(child.stdout)
