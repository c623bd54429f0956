"""The on-disk ``repro.ckpt/4`` store: atomicity, integrity, pruning."""

from __future__ import annotations

import json
import os

import pytest

from repro.common.config import SimulationConfig
from repro.common.errors import CheckpointError
from repro.ckpt.store import FORMAT, CheckpointStore
from tests.conftest import dead_pid


def _config() -> SimulationConfig:
    cfg = SimulationConfig(num_tiles=2)
    cfg.validate()
    return cfg


def _write(store: CheckpointStore, turn: int,
           blob: bytes = b"coordinator-state") -> str:
    store.config = _config().to_dict()
    return store.write(turn=turn, backend="inproc",
                       blobs={"coordinator": blob})


def test_write_read_roundtrip(tmp_path):
    store = CheckpointStore(str(tmp_path))
    path = _write(store, 40, b"state-at-40")
    assert os.path.basename(path) == "ckpt-00000040"
    manifest, blobs = store.read()
    assert manifest["format"] == FORMAT
    assert manifest["turn"] == 40
    assert manifest["backend"] == "inproc"
    assert manifest["config"] == _config().to_dict()
    assert blobs == {"coordinator": b"state-at-40"}


def test_shard_blobs_travel_with_the_coordinator(tmp_path):
    store = CheckpointStore(str(tmp_path), config=_config().to_dict())
    store.write(turn=8, backend="mp",
                blobs={"coordinator": b"coord", "shard0": b"s0",
                       "shard1": b"s1"})
    manifest, blobs = store.read()
    assert sorted(blobs) == ["coordinator", "shard0", "shard1"]
    assert sorted(manifest["files"]) == [
        "coordinator.pkl", "shard0.pkl", "shard1.pkl"]
    for meta in manifest["files"].values():
        assert set(meta) == {"sha256", "size"}


def test_latest_pointer_tracks_newest(tmp_path):
    store = CheckpointStore(str(tmp_path))
    assert store.latest() is None
    _write(store, 20)
    _write(store, 60)
    assert store.latest() == "ckpt-00000060"
    manifest, _ = store.read()
    assert manifest["turn"] == 60


def test_latest_falls_back_when_pointer_is_stale(tmp_path):
    store = CheckpointStore(str(tmp_path))
    _write(store, 20)
    with open(tmp_path / "LATEST", "w") as fh:
        fh.write("ckpt-99999999\n")  # points at nothing
    assert store.latest() == "ckpt-00000020"


def test_prune_keeps_only_newest(tmp_path):
    store = CheckpointStore(str(tmp_path), keep=2)
    for turn in (10, 20, 30, 40):
        _write(store, turn)
    assert store.list() == ["ckpt-00000030", "ckpt-00000040"]
    # The survivors are still fully readable.
    manifest, _ = store.read("ckpt-00000030")
    assert manifest["turn"] == 30


def test_rewriting_same_turn_replaces_cleanly(tmp_path):
    store = CheckpointStore(str(tmp_path))
    _write(store, 20, b"first")
    _write(store, 20, b"second")
    _, blobs = store.read("ckpt-00000020")
    assert blobs["coordinator"] == b"second"


def test_crash_between_the_two_renames_leaves_a_readable_checkpoint(
        tmp_path, monkeypatch):
    """Rewriting an existing turn moves it aside, then renames the new
    one in.  Dying between the two must not strand ``LATEST`` on a
    directory that is gone (the old ``rmtree``-then-rename did)."""
    store = CheckpointStore(str(tmp_path))
    _write(store, 20, b"first")
    assert store.latest() == "ckpt-00000020"
    real_replace = os.replace
    calls = []

    def dying_replace(src, dst):
        calls.append((os.path.basename(src), os.path.basename(dst)))
        if len(calls) == 2:
            raise OSError("killed between the two renames")
        return real_replace(src, dst)

    monkeypatch.setattr(os, "replace", dying_replace)
    with pytest.raises(OSError, match="killed"):
        _write(store, 20, b"second")
    monkeypatch.undo()
    assert calls[0] == ("ckpt-00000020", "ckpt-00000020.old")
    assert calls[1][1] == "ckpt-00000020"
    assert calls[1][0].startswith(f".ckpt-00000020.{os.getpid()}.")
    # The turn stepped aside is whole, and the failed write removed its
    # own stage.  read() verifies what survives.
    assert not any(name.startswith(".") for name in os.listdir(tmp_path))
    manifest, blobs = CheckpointStore(str(tmp_path)).read()
    assert manifest["turn"] == 20
    assert blobs["coordinator"] == b"first"
    # The next write of the turn goes through and leaves no debris.
    _write(store, 20, b"third")
    assert store.read()[1]["coordinator"] == b"third"
    assert sorted(os.listdir(tmp_path)) == ["LATEST", "ckpt-00000020"]


def test_a_killed_writers_stage_is_reclaimed_by_the_next_write(tmp_path):
    """A writer killed mid-write cannot remove its stage; the next
    write under that root does, sparing a live writer's."""
    store = CheckpointStore(str(tmp_path))
    dead = tmp_path / f".ckpt-00000040.{dead_pid()}.0"
    live = tmp_path / f".ckpt-00000040.{os.getpid()}.999999"
    for stage in (dead, live):
        os.makedirs(stage)
        (stage / "coordinator.pkl").write_bytes(b"half a snapshot")
    _write(store, 20)
    assert sorted(os.listdir(tmp_path)) == [
        live.name, "LATEST", "ckpt-00000020"]


def test_missing_root_reports_no_checkpoint(tmp_path):
    store = CheckpointStore(str(tmp_path / "empty"))
    with pytest.raises(CheckpointError, match="no checkpoint"):
        store.read()


def test_corrupt_blob_is_rejected(tmp_path):
    store = CheckpointStore(str(tmp_path))
    path = _write(store, 20, b"pristine")
    with open(os.path.join(path, "coordinator.pkl"), "wb") as fh:
        fh.write(b"Xristine")  # same size, different bytes
    with pytest.raises(CheckpointError, match="corrupt"):
        store.read()


def test_truncated_blob_is_rejected(tmp_path):
    store = CheckpointStore(str(tmp_path))
    path = _write(store, 20, b"full-length-state")
    manifest_path = os.path.join(path, "manifest.json")
    with open(manifest_path) as fh:
        manifest = json.load(fh)
    # Forge the checksum so only the size check can object.
    import hashlib
    short = b"full"
    meta = manifest["files"]["coordinator.pkl"]
    meta["sha256"] = hashlib.sha256(short).hexdigest()
    with open(manifest_path, "w") as fh:
        json.dump(manifest, fh)
    with open(os.path.join(path, "coordinator.pkl"), "wb") as fh:
        fh.write(short)
    with pytest.raises(CheckpointError, match="truncated"):
        store.read()


def test_unknown_format_version_is_rejected(tmp_path):
    """``/3`` pickled a cost model without the unspent jitter block
    ``/4`` holds: restored, it would charge other amounts."""
    store = CheckpointStore(str(tmp_path))
    path = _write(store, 20)
    manifest_path = os.path.join(path, "manifest.json")
    with open(manifest_path) as fh:
        manifest = json.load(fh)
    for old in ("repro.ckpt/2", "repro.ckpt/3"):  # the previous layouts
        manifest["format"] = old
        with open(manifest_path, "w") as fh:
            json.dump(manifest, fh)
        with pytest.raises(CheckpointError, match="unsupported") as refused:
            store.read()
        assert repr(old) in str(refused.value)
        assert repr(FORMAT) in str(refused.value) and FORMAT.endswith("/4")


def test_checkpoint_without_coordinator_is_rejected(tmp_path):
    store = CheckpointStore(str(tmp_path), config=_config().to_dict())
    store.write(turn=4, backend="mp",
                blobs={"shard0": b"orphan"})
    with pytest.raises(CheckpointError, match="coordinator"):
        store.read()


def test_half_written_staging_dir_is_invisible(tmp_path):
    """A crash mid-write leaves only a dot-named stage, which readers
    and ``list()`` never see, even once its manifest is written."""
    store = CheckpointStore(str(tmp_path))
    _write(store, 20)
    stage = tmp_path / ".ckpt-00000040.999.0"
    os.makedirs(stage)
    (stage / "manifest.json").write_text("{}")
    assert store.list() == ["ckpt-00000020"]
    assert store.latest() == "ckpt-00000020"
