"""The acceptance bar of repro.ckpt: resume is byte-identical.

Checkpointing must be invisible twice over: enabling it must not
perturb an undisturbed run, and a run continued from a snapshot must
produce a ``SimulationResult`` byte-for-byte equal to the
uninterrupted run's — on both execution backends.
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys

import pytest

from repro.common.config import SimulationConfig
from repro.common.errors import CheckpointError, ConfigError
from repro.ckpt.recovery import load_checkpoint
from repro.ckpt.snapshot import load_bytes, snapshot_bytes
from repro.ckpt.store import FORMAT, CheckpointStore
from repro.common.ids import TileId
from repro.distrib.coordinator import RemoteTask
from repro.distrib.wire import WorkloadRef
from repro.host.costmodel import BLOCK
from repro.sim.runner import create_simulator
from tests.corpus.make_corpus import digest

REF = WorkloadRef("matrix_multiply", nthreads=4, scale=0.05)

BACKENDS = ["inproc", "mp"]


def _config(backend: str, ckpt_dir=None, every: int = 0,
            seed: int = 11) -> SimulationConfig:
    cfg = SimulationConfig(num_tiles=4, seed=seed)
    cfg.host.num_machines = 2
    cfg.host.cores_per_machine = 2
    cfg.host.quantum_instructions = 200
    cfg.distrib.backend = backend
    if ckpt_dir is not None:
        cfg.ckpt.dir = str(ckpt_dir)
        cfg.ckpt.every = every
    cfg.validate()
    return cfg


def _asdict(result) -> dict:
    return dataclasses.asdict(result)


@pytest.mark.parametrize("backend", BACKENDS)
def test_checkpointing_does_not_perturb_results(backend, tmp_path):
    baseline = create_simulator(_config(backend)).run(REF)
    ckpt = create_simulator(
        _config(backend, tmp_path / "ck", every=20)).run(REF)
    assert _asdict(ckpt) == _asdict(baseline)


@pytest.mark.parametrize("backend", BACKENDS)
def test_resume_is_byte_identical(backend, tmp_path):
    """Checkpoint mid-run, restore into a fresh simulator, continue:
    the result must equal the uninterrupted run's, field for field."""
    baseline = create_simulator(_config(backend)).run(REF)

    ckpt_dir = tmp_path / "ck"
    create_simulator(_config(backend, ckpt_dir, every=20)).run(REF)
    store = CheckpointStore(str(ckpt_dir))
    assert store.list(), "periodic hook never wrote a checkpoint"

    restored, manifest = load_checkpoint(str(ckpt_dir))
    assert manifest["format"] == FORMAT
    assert manifest["backend"] == backend
    assert manifest["turn"] > 0
    resumed = restored.resume_run()
    assert _asdict(resumed) == _asdict(baseline)


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_snapshot_taken_mid_block_resumes_identically(backend, tmp_path):
    """The host cost model draws its jitter 256 factors at a time and a
    snapshot almost never falls on a block's edge: the unspent factors
    ride it, and the resumed run spends them before it draws again."""
    baseline = create_simulator(_config(backend)).run(REF)
    cfg = _config(backend, tmp_path / "ck", every=7)
    cfg.ckpt.keep = 99
    create_simulator(cfg).run(REF)
    unspent = []
    for name in CheckpointStore(str(tmp_path / "ck")).list():
        restored, _ = load_checkpoint(str(tmp_path / "ck"), name)
        unspent.append(len(restored.cost_model._factors))
        assert _asdict(restored.resume_run()) == _asdict(baseline)
    assert len(unspent) >= 3 and all(0 < n < BLOCK for n in unspent)
    assert len(set(unspent)) == len(unspent)  # a different cursor each


def respawned_child(ctx):
    yield from ctx.compute(2000)


def respawning_main(ctx):
    """Spawns ``respawned_child``, joins it, computes, and spawns it
    again: the second spawn asks for the code region the first one was
    given, after checkpoints of a 10-turn cadence were taken."""
    child = yield from ctx.spawn(respawned_child)
    yield from ctx.join(child)
    yield from ctx.compute(6000)
    child = yield from ctx.spawn(respawned_child)
    yield from ctx.join(child)


_RESUME_ALL = """
import json, sys
from repro.ckpt.recovery import load_checkpoint
from repro.ckpt.store import CheckpointStore
from tests.corpus.make_corpus import digest
root = sys.argv[1]
print(json.dumps({name: digest(load_checkpoint(root, name)[0].resume_run())
                  for name in CheckpointStore(root).list()}))
"""


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_resume_in_a_fresh_process_spawns_into_the_same_code(backend,
                                                                tmp_path):
    """A checkpoint resumed in a new process — where no program object
    has the address it had — runs on to the uninterrupted result, a
    thread spawned after the checkpoint included."""
    baseline = digest(create_simulator(_config(backend)).run(
        respawning_main))
    cfg = _config(backend, tmp_path / "ck", every=10)
    cfg.ckpt.keep = 99
    create_simulator(cfg).run(respawning_main)
    root = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(root, "src"), root]))
    out = subprocess.run(
        [sys.executable, "-c", _RESUME_ALL, str(tmp_path / "ck")],
        env=env, cwd=root, check=True, capture_output=True, text=True)
    resumed = json.loads(out.stdout.strip().splitlines()[-1])
    assert len(resumed) >= 3
    assert resumed == {name: baseline for name in resumed}


def test_resume_from_specific_snapshot(tmp_path):
    """Every retained snapshot resumes identically, not just LATEST,
    and a direct path to one ``ckpt-NNNNNNNN`` directory works."""
    baseline = create_simulator(_config("inproc")).run(REF)
    ckpt_dir = tmp_path / "ck"
    cfg = _config("inproc", ckpt_dir, every=10)
    cfg.ckpt.keep = 4
    create_simulator(cfg).run(REF)
    names = CheckpointStore(str(ckpt_dir)).list()
    assert len(names) >= 2
    for name in names:
        restored, manifest = load_checkpoint(str(ckpt_dir), name)
        assert f"{manifest['turn']:08d}" in name
        assert _asdict(restored.resume_run()) == _asdict(baseline)
    # A path straight at one snapshot directory is also accepted.
    restored, _ = load_checkpoint(str(ckpt_dir / names[0]))
    assert _asdict(restored.resume_run()) == _asdict(baseline)


def test_a_snapshot_of_logs_never_interned_resumes_identically(tmp_path):
    """An interpreter's pickled state has no intern table: a restore
    rebuilds it from the log.  A snapshot whose logs hold every load
    result as its own object (how they were written before interning)
    restores and resumes to the uninterrupted run's result all the
    same."""
    baseline = create_simulator(_config("inproc")).run(REF)
    ckpt_dir = tmp_path / "ck"
    create_simulator(_config("inproc", ckpt_dir, every=20)).run(REF)
    store = CheckpointStore(str(ckpt_dir))
    interned = store.read(store.list()[0])[1]["coordinator"]
    simulator = load_bytes(interned)
    live = [interpreter for interpreter in simulator.interpreters.values()
            if interpreter._ckpt_log]
    assert live
    for interpreter in live:
        assert "_log_values" not in interpreter.__getstate__()
        interpreter._ckpt_log = [
            bytes(bytearray(value)) if type(value) is bytes else value
            for value in interpreter._ckpt_log]
    never_interned = snapshot_bytes(simulator)
    assert len(never_interned) > len(interned)
    restored = load_bytes(never_interned)
    restored._after_restore()
    for interpreter in live:
        values = restored.interpreters[interpreter.tile]._log_values
        assert values == {value: value for value in interpreter._ckpt_log
                          if type(value) is bytes}
    assert _asdict(restored.resume_run()) == _asdict(baseline)


def test_a_remote_task_pickled_as_sim_restores_its_kernel():
    """An mp coordinator snapshot written while a ``RemoteTask`` called
    the simulator serving it ``_sim`` restores it as ``kernel``."""
    kernel = object()
    _dict, state = RemoteTask(kernel, TileId(3), 40).__reduce_ex__(2)[2]
    state["_sim"] = state.pop("kernel")
    restored = RemoteTask.__new__(RemoteTask)
    restored.__setstate__((None, state))
    assert restored.kernel is kernel
    assert (restored.tile, restored.cycles) == (3, 40)


def test_manual_save_and_restored_state_consistency(tmp_path):
    """save_checkpoint() after a run snapshots the finished state; a
    restored simulator still passes the coherence audit."""
    cfg = _config("inproc", tmp_path / "ck")
    sim = create_simulator(cfg)
    sim.run(REF)
    path = sim.save_checkpoint()
    assert os.path.isdir(path)
    restored, _ = load_checkpoint(str(tmp_path / "ck"))
    restored.engine.check_coherence_invariants()


def test_corrupted_snapshot_is_rejected_on_load(tmp_path):
    ckpt_dir = tmp_path / "ck"
    create_simulator(_config("inproc", ckpt_dir, every=20)).run(REF)
    name = CheckpointStore(str(ckpt_dir)).latest()
    blob_path = ckpt_dir / name / "coordinator.pkl"
    blob = bytearray(blob_path.read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    blob_path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match="corrupt"):
        load_checkpoint(str(ckpt_dir))


def test_save_checkpoint_requires_enablement():
    sim = create_simulator(_config("inproc"))
    with pytest.raises(CheckpointError, match="not enabled"):
        sim.save_checkpoint()


def test_ckpt_every_requires_dir():
    cfg = SimulationConfig(num_tiles=2)
    cfg.ckpt.every = 10
    with pytest.raises(ConfigError):
        cfg.validate()


def test_ckpt_accepts_host_profiling():
    """The profiler's timers sit on classes, outside every snapshot,
    so no pair of observers is mutually exclusive at validate time."""
    cfg = SimulationConfig(num_tiles=2)
    cfg.ckpt.dir = "/tmp/never-used"
    cfg.profile.enabled = True
    cfg.validate()


def test_config_roundtrips_ckpt_section(tmp_path):
    cfg = _config("inproc", tmp_path / "ck", every=5)
    cfg.ckpt.max_restarts = 7
    clone = SimulationConfig.from_dict(cfg.to_dict())
    assert clone.ckpt.dir == str(tmp_path / "ck")
    assert clone.ckpt.every == 5
    assert clone.ckpt.max_restarts == 7
    assert clone.ckpt.enabled
