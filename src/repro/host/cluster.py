"""Host cluster layout: machines, cores, processes, and tile placement.

The mapping between tiles and processes is implemented "by simply
striping the tiles across the processes" (paper §3.5); processes are
spread evenly across machines, and each process's tile threads share the
cores of its machine.
"""

from __future__ import annotations

import enum
from typing import List

from repro.common.config import HostConfig
from repro.common.errors import ConfigError
from repro.common.ids import CoreId, ProcessId, TileId


class Locality(enum.Enum):
    """How far apart two tiles are on the host platform."""

    #: As ``MessageKind`` hashes: every leg looks its locality up.
    __hash__ = object.__hash__

    SAME_PROCESS = "same_process"
    SAME_MACHINE = "same_machine"
    CROSS_MACHINE = "cross_machine"


class ClusterLayout:
    """Static placement of tiles onto processes, machines and cores."""

    __slots__ = ("num_tiles", "host", "num_processes", "num_machines",
                 "cores_per_machine", "_machine_of_tile", "_core_of_tile")

    def __init__(self, num_tiles: int, host: HostConfig) -> None:
        if num_tiles < 1:
            raise ConfigError("cluster: need at least one tile")
        host.validate()
        self.num_tiles = num_tiles
        self.host = host
        self.num_processes = host.resolved_processes()
        self.num_machines = host.num_machines
        self.cores_per_machine = host.cores_per_machine
        if self.num_processes < self.num_machines:
            raise ConfigError("cluster: fewer processes than machines")
        # Precompute hot lookups: tile -> machine and tile -> host core.
        self._machine_of_tile: List[int] = []
        self._core_of_tile: List[CoreId] = []
        per_machine_count = [0] * self.num_machines
        for t in range(num_tiles):
            machine = (t % self.num_processes) % self.num_machines
            slot = per_machine_count[machine] % self.cores_per_machine
            per_machine_count[machine] += 1
            self._machine_of_tile.append(machine)
            self._core_of_tile.append(
                CoreId(machine * self.cores_per_machine + slot))

    # -- placement ----------------------------------------------------------

    def process_of_tile(self, tile: TileId) -> ProcessId:
        """Tile → host process, by striping (paper §3.5)."""
        return ProcessId(int(tile) % self.num_processes)

    def machine_of_process(self, process: ProcessId) -> int:
        """Processes are distributed round-robin across machines."""
        return int(process) % self.num_machines

    def machine_of_tile(self, tile: TileId) -> int:
        return self._machine_of_tile[int(tile)]

    def tiles_of_process(self, process: ProcessId) -> List[TileId]:
        return [TileId(t) for t in range(int(process), self.num_tiles,
                                         self.num_processes)]

    def shards(self) -> List[List[TileId]]:
        """Tile shard of every host process, indexed by process id.

        The distributed backend forks one OS worker per entry and hands
        it exactly this tile list (paper §3.5: tiles striped across
        processes).
        """
        return [self.tiles_of_process(ProcessId(p))
                for p in range(self.num_processes)]

    def core_of_tile(self, tile: TileId) -> CoreId:
        """Host core a tile's thread is scheduled on.

        Tiles of one machine share that machine's cores round-robin; the
        host OS would migrate threads, but a static assignment gives the
        same aggregate load while staying deterministic.
        """
        return self._core_of_tile[int(tile)]

    def tiles_on_machine(self, machine: int) -> List[TileId]:
        return [TileId(t) for t in range(self.num_tiles)
                if self.machine_of_tile(TileId(t)) == machine]

    @property
    def total_cores(self) -> int:
        return self.num_machines * self.cores_per_machine

    # -- locality -----------------------------------------------------------

    def locality(self, a: TileId, b: TileId) -> Locality:
        """Communication distance class between two tiles (once per
        message: the striping of ``process_of_tile`` and
        ``machine_of_process``, spelled inline)."""
        pa, pb = a % self.num_processes, b % self.num_processes
        if pa == pb:
            return Locality.SAME_PROCESS
        if pa % self.num_machines == pb % self.num_machines:
            return Locality.SAME_MACHINE
        return Locality.CROSS_MACHINE

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"ClusterLayout(tiles={self.num_tiles}, "
                f"procs={self.num_processes}, "
                f"machines={self.num_machines}x{self.cores_per_machine})")
