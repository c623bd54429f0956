"""Store faults, tested once for every kind of entry.

Checkpoints, snapshot-library entries and stored results are one entry
shape written and read by :mod:`repro.ckpt.store`.  Each case runs on
all three: a flipped or truncated blob is refused with the kind's typed
error and never returned; a write that fails with ENOSPC leaves neither
an entry nor a stage; and two processes putting one result key leave
one entry whose bytes both get back.  Reading a missing root creates
nothing.
"""

from __future__ import annotations

import builtins
import errno
import multiprocessing
import os

import pytest

from repro.ckpt.store import CheckpointStore
from repro.common.errors import CheckpointError, SampleError, ServeError
from repro.sample.library import SnapshotLibrary
from repro.serve.store import ResultStore
from repro.sim.results import SimulationResult
from tests.conftest import tiny_config

KEY = "c" * 64


def program(ctx):
    base = yield from ctx.malloc(256)
    for i in range(200):
        yield from ctx.store_u64(base + (i % 8) * 8, i)
        yield from ctx.compute(20)


def _result() -> SimulationResult:
    return SimulationResult(
        simulated_cycles=74439, wall_clock_seconds=1.5,
        native_seconds=0.01, thread_cycles={0: 74439},
        thread_instructions={0: 400}, counters={"x": 1})


class Checkpoint:
    error = CheckpointError

    def put(self, root):
        config = tiny_config(2)
        CheckpointStore(root, config=config.to_dict()).write(
            turn=20, backend="inproc", blobs={"coordinator": b"state" * 64})
        return os.path.join(root, "ckpt-00000020", "coordinator.pkl")

    def get(self, root):
        return CheckpointStore(root).read()

    def keys(self, root):
        return CheckpointStore(root).list()


class LibraryEntry:
    error = SampleError

    @staticmethod
    def config(root):
        config = tiny_config(2)
        config.sample.ff_until = 1000
        config.sample.library = root
        config.validate()
        return config

    def put(self, root):
        library = SnapshotLibrary(root)
        path = library.prime(self.config(root), program)
        return os.path.join(path, "coordinator.pkl")

    def get(self, root):
        library = SnapshotLibrary(root)
        config = self.config(root)
        return library.fork(library.key(config, program), config)

    def keys(self, root):
        return SnapshotLibrary(root).keys()


class Result:
    error = ServeError

    def put(self, root):
        ResultStore(root).put(KEY, _result())
        return os.path.join(root, KEY, "result.json")

    def get(self, root):
        return ResultStore(root).get(KEY)

    def keys(self, root):
        return ResultStore(root).keys()


KINDS = [Checkpoint(), LibraryEntry(), Result()]
IDS = ["checkpoint", "library", "result"]


def _flip(path: str) -> None:
    """Change one byte; in a result, one digit of its cycle count, so
    the blob still parses (74439 -> 84439)."""
    with open(path, "rb") as handle:
        blob = bytearray(handle.read())
    at = blob.find(b'"simulated_cycles":')
    at = len(blob) // 2 if at < 0 else at + len(b'"simulated_cycles":')
    blob[at] = ord("8") if blob[at] == ord("7") else blob[at] ^ 0x01
    with open(path, "wb") as handle:
        handle.write(bytes(blob))


def _stages(root: str):
    return [name for name in os.listdir(root) if name.startswith(".")
            or ".tmp" in name]


@pytest.mark.parametrize("kind", KINDS, ids=IDS)
def test_a_flipped_byte_is_refused(kind, tmp_path):
    root = str(tmp_path / "store")
    _flip(kind.put(root))
    with pytest.raises(kind.error, match="corrupt"):
        kind.get(root)


@pytest.mark.parametrize("kind", KINDS, ids=IDS)
def test_a_truncated_blob_is_refused(kind, tmp_path):
    root = str(tmp_path / "store")
    path = kind.put(root)
    with open(path, "rb") as handle:
        blob = handle.read()
    with open(path, "wb") as handle:
        handle.write(blob[:len(blob) // 2])
    with pytest.raises(kind.error):
        kind.get(root)


@pytest.mark.parametrize("kind", KINDS, ids=IDS)
def test_enospc_mid_put_leaves_no_entry_and_no_stage(kind, tmp_path,
                                                     monkeypatch):
    root = str(tmp_path / "store")
    real_open = builtins.open

    class Full:
        def __init__(self, handle):
            self.handle = handle

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.handle.close()

        def write(self, data):
            raise OSError(errno.ENOSPC, "No space left on device")

        def close(self):
            self.handle.close()

    def full_disk(path, mode="r", *args, **kwargs):
        handle = real_open(path, mode, *args, **kwargs)
        if "wb" in mode and str(path).startswith(root):
            return Full(handle)
        return handle

    monkeypatch.setattr(builtins, "open", full_disk)
    with pytest.raises(OSError) as failure:
        kind.put(root)
    monkeypatch.undo()
    cause = failure.value
    while cause.__cause__ is not None and cause.errno != errno.ENOSPC:
        cause = cause.__cause__
    assert cause.errno == errno.ENOSPC
    assert kind.keys(root) == []
    assert _stages(root) == []


def _put(root, barrier, out):
    barrier.wait()
    out.put(ResultStore(root).put(KEY, _result()))


def test_two_processes_putting_one_result_key_leave_one_entry(tmp_path):
    root = str(tmp_path / "store")
    context = multiprocessing.get_context("spawn")
    barrier, out = context.Barrier(2), context.Queue()
    workers = [context.Process(target=_put, args=(root, barrier, out))
               for _ in range(2)]
    for worker in workers:
        worker.start()
    returned = [out.get(timeout=30) for _ in workers]
    for worker in workers:
        worker.join(timeout=30)
        assert worker.exitcode == 0
    store = ResultStore(root)
    assert store.keys() == [KEY]
    assert _stages(root) == []
    assert returned == [store.get_bytes(KEY)] * 2


def test_readers_create_nothing(tmp_path, capsys):
    """Only a write creates a root: listing, reading, ``sample ls``,
    ``sample gc`` and ``resume`` of a missing root leave it missing."""
    from repro.cli import main
    missing = str(tmp_path / "missing")
    assert CheckpointStore(missing).list() == []
    assert CheckpointStore(missing).latest() is None
    assert SnapshotLibrary(missing).entries() == []
    assert ResultStore(missing).keys() == []
    assert ResultStore(missing).get(KEY) is None
    assert main(["sample", "ls", "--library", missing]) == 0
    assert "no entries" in capsys.readouterr().out
    assert main(["sample", "ls", "--library", missing, "--json"]) == 0
    assert capsys.readouterr().out.strip() == "[]"
    assert main(["sample", "gc", "--library", missing]) == 0
    assert main(["resume", missing]) == 1
    assert capsys.readouterr().err.startswith("resume: no checkpoint")
    assert not os.path.exists(missing)
