"""A save streams the snapshot into its file.

``Simulator.save_checkpoint`` pickles the simulator straight into the
staged ``coordinator.pkl`` through a writer that hashes and counts the
bytes as they pass, so no save holds the snapshot as one blob.  The
file is what :func:`snapshot_bytes` would have returned, the manifest
names its real sha256 and size, and a dump that fails part way (a full
disk, an unpicklable object) raises :class:`CheckpointError` and leaves
the previous checkpoint, ``LATEST`` and no stage behind.  The config's
dict is built once per armed run, not once per save.
"""

from __future__ import annotations

import errno
import hashlib
import os
import threading

import pytest

from repro.ckpt import snapshot
from repro.ckpt.recovery import load_checkpoint
from repro.ckpt.store import CheckpointStore, _HashingWriter
from repro.common.config import SimulationConfig
from repro.common.errors import CheckpointError
from repro.distrib.wire import WorkloadRef
from repro.sim.runner import create_simulator
from repro.sim.simulator import Simulator

#: 30 scheduler turns; its turn-20 snapshot is ~85 KB, two pickle frames.
REF = WorkloadRef("fft", 4, 0.3)


def _config(root, backend: str = "inproc", every: int = 10
            ) -> SimulationConfig:
    config = SimulationConfig(num_tiles=4, seed=5)
    config.host.num_machines = 2
    config.host.cores_per_machine = 2
    config.distrib.backend = backend
    config.ckpt.dir = str(root)
    config.ckpt.every = every
    config.ckpt.keep = 9
    config.validate()
    return config


def _file_meta(path: str) -> dict:
    with open(path, "rb") as handle:
        blob = handle.read()
    return {"sha256": hashlib.sha256(blob).hexdigest(), "size": len(blob)}


def _latest_pointer(root) -> str:
    with open(os.path.join(root, "LATEST"), encoding="utf-8") as handle:
        return handle.read().strip()


def _assert_only_the_first_checkpoint(root) -> None:
    store = CheckpointStore(str(root))
    assert store.list() == ["ckpt-00000010"]
    assert _latest_pointer(root) == store.latest() == "ckpt-00000010"
    assert not [name for name in os.listdir(root) if name.startswith(".")]
    manifest, _blobs = store.read()  # verifies every checksum
    assert manifest["turn"] == 10


@pytest.mark.parametrize("backend", ["inproc", "mp"])
def test_the_manifest_names_the_files_real_checksum_and_size(
        backend, tmp_path):
    config = _config(tmp_path / "ck", backend)
    create_simulator(config).run(REF)
    store = CheckpointStore(config.ckpt.dir)
    names = store.list()
    assert len(names) >= 2
    for name in names:
        manifest, _ = store.read(name)
        for filename, meta in manifest["files"].items():
            assert meta == _file_meta(
                os.path.join(config.ckpt.dir, name, filename))


def test_the_file_is_the_snapshot_bytes_of_the_same_state(tmp_path):
    simulator = create_simulator(_config(tmp_path / "ck", every=0))
    simulator.run(REF)
    path = simulator.save_checkpoint()
    with open(os.path.join(path, "coordinator.pkl"), "rb") as handle:
        assert handle.read() == snapshot.snapshot_bytes(simulator)


def test_a_save_does_not_build_the_snapshot_as_bytes(tmp_path,
                                                     monkeypatch):
    def refuse(obj):
        raise AssertionError("save_checkpoint built a snapshot blob")

    monkeypatch.setattr(snapshot, "snapshot_bytes", refuse)
    config = _config(tmp_path / "ck")
    create_simulator(config).run(REF)
    assert len(CheckpointStore(config.ckpt.dir).list()) >= 2


def test_a_full_disk_mid_dump_keeps_the_previous_checkpoint(
        tmp_path, monkeypatch):
    root = tmp_path / "ck"
    real_write = _HashingWriter.write
    failed = []

    def full_after_first_frame(self, data):
        # Once a checkpoint is published, the next file fails on its
        # second write: the pickler has already streamed a frame.
        if self._size and os.path.exists(root / "LATEST"):
            failed.append(self._size)
            raise OSError(errno.ENOSPC, "No space left on device")
        return real_write(self, data)

    monkeypatch.setattr(_HashingWriter, "write", full_after_first_frame)
    with pytest.raises(CheckpointError, match="cannot write snapshot") \
            as failure:
        create_simulator(_config(root)).run(REF)
    assert failure.value.errno == errno.ENOSPC
    assert failed  # raised with a frame already in the file
    monkeypatch.undo()
    _assert_only_the_first_checkpoint(root)


def test_an_unpicklable_object_keeps_the_previous_checkpoint(
        tmp_path, monkeypatch):
    root = tmp_path / "ck"
    real_save = Simulator.save_checkpoint

    def save_with_a_lock(self):
        if os.path.exists(root / "LATEST"):
            self.recoveries = [threading.Lock()]
        return real_save(self)

    monkeypatch.setattr(Simulator, "save_checkpoint", save_with_a_lock)
    with pytest.raises(CheckpointError, match="cannot snapshot state"):
        create_simulator(_config(root)).run(REF)
    monkeypatch.undo()
    _assert_only_the_first_checkpoint(root)


def test_the_config_dict_is_built_once_per_run(tmp_path, monkeypatch):
    config = _config(tmp_path / "ck")
    calls = []
    real_to_dict = SimulationConfig.to_dict
    monkeypatch.setattr(SimulationConfig, "to_dict",
                        lambda self: calls.append(1) or real_to_dict(self))
    create_simulator(config).run(REF)
    monkeypatch.undo()
    store = CheckpointStore(config.ckpt.dir)
    names = store.list()
    first, second = names[:2]
    assert store.read(first)[0]["config"] == \
        store.read(second)[0]["config"] == config.to_dict()
    # One per armed run, none per save: each manifest's dict and each
    # snapshot's pickled config are the one built when the simulator
    # was armed.
    assert len(names) >= 2 and len(calls) == 1
    restored, _ = load_checkpoint(config.ckpt.dir, first)
    assert restored.config == config


def test_a_restore_given_a_replacement_config_writes_it(tmp_path):
    config = _config(tmp_path / "ck")
    create_simulator(config).run(REF)
    replacement = config.copy()
    replacement.ckpt.dir = str(tmp_path / "again")
    replacement.ckpt.every = 5
    simulator, _ = load_checkpoint(config.ckpt.dir, "ckpt-00000010",
                                   config=replacement)
    simulator.resume_run()
    store = CheckpointStore(replacement.ckpt.dir)
    assert store.list()
    for name in store.list():
        assert store.read(name)[0]["config"] == replacement.to_dict()
    assert replacement.to_dict() != config.to_dict()
