"""The classes a coherence leg runs through pickle the state they did
before the leg lost its objects (DESIGN.md §3 "A miss in one pass").

The leg's charger and sanitizers are armed by the simulator, on
restore too, and are not pickled.  So a ``repro.ckpt/4`` snapshot
written before the change still restores, and one written after it is
read by the code before it.
"""

from __future__ import annotations

import pickle

import pytest

from repro.ckpt.snapshot import load_bytes, snapshot_bytes
from repro.common.config import NetworkConfig, SimulationConfig
from repro.common.ids import TileId
from repro.common.stats import StatGroup
from repro.host.cluster import Locality
from repro.memory.directory import create_directory
from repro.network.model import create_network_model
from repro.sim.runner import create_simulator
from repro.transport.message import MessageKind

_MODEL = ["_bytes", "_latency", "_packets", "name", "stats", "telemetry"]
_LINKS = ["endpoint_latency", "hop_latency", "link_bytes_per_cycle"]
_DIRECTORY = ["_lookups", "_tele", "config", "entries", "home", "stats"]

#: Pickled state keys of each class at the parent commit.
PARENT_KEYS = {
    "Transport": ["_by_locality", "_bytes", "_queues", "_sent",
                  "delivery_hook", "layout", "stats"],
    "NetworkFabric": ["_tele", "config", "functional", "models",
                      "num_tiles", "stats", "transport"],
    "HostCostModel": ["_factors", "_instr_cost", "_message", "_rng",
                      "config", "scheduler"],
    "CoherenceEngine": ["_read_misses", "_tele_cache", "_upgrades",
                        "_write_misses", "backing", "classifier", "config",
                        "directories", "drams", "fabric", "functional",
                        "hierarchies", "line_bytes", "num_tiles",
                        "progress", "space", "stats"],
    "mesh": _MODEL + _LINKS + ["geometry"],
    "magic": _MODEL,
    "mesh_contention": _MODEL + _LINKS + [
        "_contention", "_links", "_queue_stats", "geometry", "progress"],
    "ring": _MODEL + _LINKS + ["num_tiles"],
    "torus": _MODEL + _LINKS + ["geometry"],
    "full_map": _DIRECTORY,
    "limited": _DIRECTORY + ["_pointer_evictions", "max_sharers"],
    "limitless": _DIRECTORY + ["_traps", "hw_pointers", "trap_latency"],
}


def _keys(obj) -> list:
    state = obj.__reduce_ex__(pickle.HIGHEST_PROTOCOL)[2]
    if isinstance(state, tuple):
        instance_dict, slots = state
        return sorted([*(instance_dict or {}), *slots])
    return sorted(state)


def _simulator():
    config = SimulationConfig(num_tiles=4, seed=11)
    config.validate()
    return create_simulator(config)


def _objects() -> dict:
    sim = _simulator()
    objects = {"Transport": sim.transport, "NetworkFabric": sim.fabric,
               "HostCostModel": sim.cost_model,
               "CoherenceEngine": sim.engine}
    for name in ("mesh", "magic", "mesh_contention", "ring", "torus"):
        objects[name] = create_network_model(name, 4, NetworkConfig(),
                                             StatGroup("n"))
    for kind in ("full_map", "limited", "limitless"):
        config = SimulationConfig(num_tiles=4)
        config.memory.directory_type = kind
        config.validate()
        objects[kind] = create_directory(TileId(0), config.memory,
                                         StatGroup("d"))
    return objects


@pytest.mark.parametrize("name", sorted(PARENT_KEYS))
def test_pickled_state_keys_are_the_parents(name):
    assert _keys(_objects()[name]) == sorted(PARENT_KEYS[name])


def test_a_restored_simulator_rearms_its_transport():
    sim = _simulator()
    sim.fabric.transfer(TileId(0), TileId(3), MessageKind.MEMORY, 72, 0)
    restored = load_bytes(snapshot_bytes(sim))
    fabric, transport = restored.fabric, restored.transport
    # A leg counts in the restored locality counter (one process here).
    same_process = transport._by_locality[Locality.SAME_PROCESS]
    assert same_process.value == 1
    fabric.transfer(TileId(0), TileId(3), MessageKind.MEMORY, 72, 0)
    assert same_process.value == 2
    # Unpickled, the transport charges nothing until the simulator arms
    # it; ``_after_restore`` does, as ``__init__`` did.
    assert transport.charge_leg is None
    restored._after_restore()
    assert transport.charge_leg.__self__ is restored.cost_model
    assert transport.delivery_hook.__self__ is restored
    assert snapshot_bytes(load_bytes(snapshot_bytes(restored))) == \
        snapshot_bytes(restored)
