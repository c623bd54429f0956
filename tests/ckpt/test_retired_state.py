"""``RETIRED_STATE``: what older snapshots hold loads, and nothing else.

A snapshot names the classes, slots and bound methods of the code that
wrote it.  Each row of :data:`repro.common.RETIRED_STATE` lets one such
name outlive its code; a name the code lacks and no row lists fails the
load.  ``tests/test_corpus.py`` proves the rows the committed corpus
reaches; the rows it does not reach are proven here, each by a snapshot
built in the shape an older one had.
"""

from __future__ import annotations

import pytest

from repro.ckpt.snapshot import load_bytes, snapshot_bytes
from repro.common import RETIRED_STATE, slot_state
from repro.common.config import HostConfig, SimulationConfig
from repro.common.errors import CheckpointError
from repro.common.ids import TileId
from repro.common.stats import StatGroup
from repro.distrib.coordinator import DistribSimulator, RemoteTask
from repro.distrib.worker import KernelProxy
from repro.host.cluster import ClusterLayout, Locality
from repro.host.costmodel import HostCostModel
from repro.memory.controller import MemoryController
from repro.memory.directory import DirState, Directory, create_directory
from repro.sim.runner import create_simulator
from repro.sim.simulator import Simulator
from repro.transport.message import Message, MessageKind
from repro.transport.transport import Transport
from tests.test_corpus import NOT_IN_CORPUS, rows


def _old_snapshot(monkeypatch, obj, state) -> bytes:
    """A snapshot of ``obj`` whose pickled state is ``state``."""
    with monkeypatch.context() as patch:
        patch.setattr(type(obj), "__getstate__", lambda self: state)
        return snapshot_bytes(obj)


def _simulator() -> Simulator:
    config = SimulationConfig(num_tiles=4, seed=5)
    config.validate()
    return create_simulator(config)


def test_a_slot_no_row_lists_fails_the_load(monkeypatch):
    simulator = _simulator()
    blob = _old_snapshot(monkeypatch, simulator,
                         (None, {**slot_state(simulator), "_retired": 1}))
    with pytest.raises(CheckpointError, match="_retired"):
        load_bytes(blob)


def test_a_method_no_row_lists_fails_the_load():
    blob = snapshot_bytes(_simulator().cost_model.charge_events)
    assert blob.count(b"charge_events") == 1
    with pytest.raises(CheckpointError, match="charge_absent"):
        load_bytes(blob.replace(b"charge_events", b"charge_absent"))


def test_each_row_names_a_member_its_live_class_lacks():
    live = {cls.__name__: cls for cls in (
        KernelProxy, HostCostModel, Simulator, MemoryController,
        DistribSimulator, RemoteTask, Transport, Directory)}
    assert set(live) == {owner for owner, row in RETIRED_STATE.items()
                         if isinstance(row, dict)}
    for owner, name in (row.split(".") for row in rows() if "." in row):
        row = RETIRED_STATE[owner][name]
        becomes = row[0] if isinstance(row, tuple) else None
        if becomes is not None:
            assert becomes in live[owner].__slots__, (owner, name)
        if becomes != name:
            assert not hasattr(live[owner], name), (owner, name)


class _Kernel:
    """A stand-in simulator: a class, so pickled by reference."""


_delivered: list = []


def _deliver(message: Message, locality: Locality) -> None:
    _delivered.append(locality)


def _remote_task_pickled_as_sim(monkeypatch):
    """An mp coordinator snapshot written while a ``RemoteTask`` called
    the simulator serving it ``_sim`` restores it as ``kernel``."""
    kernel = _Kernel
    task = RemoteTask(kernel, TileId(3), 40)
    state = slot_state(task)
    state["_sim"] = state.pop("kernel")
    restored = load_bytes(_old_snapshot(monkeypatch, task, (None, state)))
    assert restored.kernel is kernel
    assert (restored.tile, restored.cycles) == (3, 40)


def _transport_holding_a_hook_list(monkeypatch):
    """``repro.ckpt/4`` snapshots written while the hook was a list
    still load: its one entry becomes the hook."""
    transport = Transport(ClusterLayout(8, HostConfig(num_machines=2)))
    _dict, state = transport.__getstate__()
    del state["delivery_hook"]
    state["_hooks"] = [_deliver]
    restored = load_bytes(_old_snapshot(monkeypatch, transport,
                                        (None, state)))
    _delivered.clear()
    restored.send(Message(src=TileId(0), dst=TileId(1),
                          kind=MessageKind.USER, payload=None,
                          size_bytes=8, tag=None))
    assert _delivered == [Locality.CROSS_MACHINE]
    assert restored.pending(TileId(1), MessageKind.USER) == 1


def _directory_with_sharer_dicts(monkeypatch):
    """The sharer dicts of older snapshots load as tuples."""
    config = SimulationConfig(num_tiles=8)
    config.memory.directory_type = "limited"
    config.memory.directory_max_sharers = 3
    config.validate()
    directory = create_directory(TileId(0), config.memory, StatGroup("d"))
    entry = directory.entry(0x40)
    for tile in (4, 1, 6):
        directory.add_sharer(entry, TileId(tile))
    entry.state = DirState.SHARED
    state = directory.__getstate__()
    state["entries"] = {line: (dir_state, dict.fromkeys(sharers))
                        for line, (dir_state, sharers)
                        in state["entries"].items()}
    restored = load_bytes(_old_snapshot(monkeypatch, directory, state))
    assert restored.entries[0x40].sharers == (4, 1, 6)
    assert type(restored.entries[0x40].sharers) is tuple
    assert restored.entries[0x40].state is DirState.SHARED


#: An older snapshot built by hand, per row.  The rows the corpus does
#: not reach must each have one.
HAND_BUILT = {
    "RemoteTask._sim": _remote_task_pickled_as_sim,
    "Transport._hooks": _transport_holding_a_hook_list,
    "Directory.entries": _directory_with_sharer_dicts,
}


def test_every_row_the_corpus_misses_is_built_by_hand():
    assert NOT_IN_CORPUS <= set(HAND_BUILT) <= set(rows())


@pytest.mark.parametrize("row", sorted(HAND_BUILT))
def test_an_older_snapshot_loads_through_its_row(monkeypatch, row):
    HAND_BUILT[row](monkeypatch)
