"""One property for every way a simulator comes to exist.

Host-side wiring — the telemetry bus, sanitizers, flight ring, span
emitter, host profiler, stage channels, checkpoint store and the
scheduler's boundary stages — lives outside the snapshot, so every restore has to put it
back.  A fresh build and a restore run the same two functions
(``Simulator._arm_observers`` / ``_arm_boundary``; DESIGN.md §3); this
file holds them to it: for each host-side feature, a simulator that
came back through any restoring entry point has exactly the stages and
the live observer slots a fresh build of the same config has.

The same entry points hold the other end of a run: once it is over,
normally or by unwinding, the simulator is a tree, so dropping it frees
it by reference counting and leaves the collector nothing of ours.
"""

from __future__ import annotations

import gc
import pickle

import pytest

from repro.ckpt.recovery import load_checkpoint, resume_with_recovery
from repro.ckpt.store import CheckpointStore
from repro.common.config import SimulationConfig
from repro.distrib.wire import WorkloadRef
from repro.host.scheduler import STAGE_ORDER
from repro.sample.library import SnapshotLibrary
from repro.serve.worker import JobPreempted, run_job
from repro.sim.runner import create_simulator, launch

REF = WorkloadRef("matrix_multiply", nthreads=4, scale=0.05)


def _trace(cfg, tmp_path):
    cfg.telemetry.enabled = True


def _sanitize(cfg, tmp_path):
    cfg.check.sanitize = True


def _flight_dir(cfg, tmp_path):
    cfg.telemetry.flight_dir = str(tmp_path / "flight")


def _trace_id(cfg, tmp_path):
    cfg.telemetry.enabled = True
    cfg.telemetry.events = ["obs"]
    cfg.telemetry.trace_id = "0123456789abcdef"
    cfg.telemetry.span_parent = "fedcba9876543210"


def _metrics_interval(cfg, tmp_path):
    cfg.telemetry.enabled = True
    cfg.telemetry.metrics_interval = 8


def _trace_clock_skew(cfg, tmp_path):
    cfg.trace_clock_skew = True
    cfg.skew_sample_period = 4


def _ckpt_every(cfg, tmp_path):
    cfg.ckpt.every = 16


def _ff_until(cfg, tmp_path):
    cfg.sample.ff_until = 2000


def _profile(cfg, tmp_path):
    cfg.profile.enabled = True


#: feature -> (how to ask for it, what a fresh build must then have:
#: a stage name or an observer slot).
FEATURES = {
    "trace": (_trace, "telemetry"),
    "sanitize": (_sanitize, "sanitizers"),
    "flight_dir": (_flight_dir, "flight"),
    "trace_id": (_trace_id, "_span_emitter"),
    "metrics_interval": (_metrics_interval, "metrics"),
    "trace_clock_skew": (_trace_clock_skew, "skew"),
    "ckpt.every": (_ckpt_every, "ckpt"),
    "sample.ff_until": (_ff_until, "sample"),
    "profile": (_profile, "profiler"),
}

SLOTS = ("telemetry", "sanitizers", "flight", "_span_emitter",
         "_ckpt_store", "profiler")


def _config(feature: str, tmp_path, backend: str = "inproc"
            ) -> SimulationConfig:
    cfg = SimulationConfig(num_tiles=4, seed=11)
    cfg.host.num_machines = 2
    cfg.host.cores_per_machine = 2
    cfg.host.quantum_instructions = 200
    cfg.distrib.backend = backend
    if backend == "mp":
        # Never fires; makes the run migration-capable, which is what
        # arms the ``net`` stage over pipes.
        cfg.distrib.drain_turn = 10 ** 9
    cfg.ckpt.dir = str(tmp_path / "ck")
    FEATURES[feature][0](cfg, tmp_path)
    cfg.validate()
    return cfg


def _armed(simulator) -> tuple:
    """(stage names, which observer slots are live)."""
    live = {slot: getattr(simulator, slot) is not None
            for slot in SLOTS}
    metrics, sample = simulator.metrics, simulator.sample_controller
    live["metrics.channel"] = (metrics is not None
                               and metrics.channel is not None)
    live["sample.channel"] = (sample is not None
                              and sample.channel is not None)
    return simulator.scheduler.stage_names(), live


class _SetOnPoll:
    """A preempt flag the Nth quantum boundary finds set (0: never)."""

    def __init__(self, poll: int = 0) -> None:
        self.polls_left = poll

    def is_set(self) -> bool:
        self.polls_left -= 1
        return self.polls_left == 0

    def clear(self) -> None:
        pass


def _checkpoint_mid_run(cfg: SimulationConfig) -> str:
    """Preempt a run of ``cfg`` (some 30 turns) at its 12th boundary;
    the snapshot directory."""
    with pytest.raises(JobPreempted) as preempted:
        launch(cfg, REF, preempt_flag=_SetOnPoll(12))
    return preempted.value.checkpoint_dir


@pytest.mark.parametrize("feature", sorted(FEATURES))
def test_fresh_build_arms_what_the_config_asks_for(feature, tmp_path):
    stages, live = _armed(create_simulator(_config(feature, tmp_path)))
    wanted = FEATURES[feature][1]
    assert wanted in stages if wanted in STAGE_ORDER else live[wanted]
    assert stages == [s for s in STAGE_ORDER if s in stages]


@pytest.mark.parametrize("feature", sorted(FEATURES))
def test_resume_with_recovery_arms_like_a_fresh_build(feature, tmp_path):
    cfg = _config(feature, tmp_path)
    fresh = _armed(create_simulator(cfg))
    _result, restored = resume_with_recovery(_checkpoint_mid_run(cfg))
    assert _armed(restored) == fresh


def test_resume_arms_for_the_telemetry_it_is_given(tmp_path):
    """``repro resume --trace --metrics-interval``: the override, not
    the checkpointed section, decides what the resumed run attaches —
    by name and by a direct ``ckpt-NNNNNNNN`` path alike."""
    cfg = _config("sample.ff_until", tmp_path)
    snapshot = _checkpoint_mid_run(cfg)
    traced = cfg.copy()
    _metrics_interval(traced, tmp_path)
    fresh = _armed(create_simulator(traced))
    root, name = snapshot.rsplit("/", 1)
    for path, name in ((snapshot, None), (root, name)):
        _result, restored = resume_with_recovery(
            path, name, telemetry=traced.telemetry)
        assert _armed(restored) == fresh
        assert restored.metrics.samples_taken > 0


@pytest.mark.parametrize("feature", sorted(FEATURES))
def test_library_fork_arms_like_a_fresh_build(feature, tmp_path):
    cfg = _config(feature, tmp_path)
    cfg.sample.ff_until = 2000
    fresh = _armed(create_simulator(cfg))
    library = SnapshotLibrary(str(tmp_path / "lib"))
    key, _primed = library.ensure(cfg, REF)
    assert _armed(library.fork(key, cfg)) == fresh


@pytest.mark.parametrize("feature", sorted(FEATURES))
def test_launch_resume_arms_like_a_fresh_build(feature, tmp_path):
    cfg = _config(feature, tmp_path)
    stages, live = _armed(create_simulator(cfg))
    _result, restored = launch(cfg, REF,
                               resume_dir=_checkpoint_mid_run(cfg),
                               preempt_flag=_SetOnPoll())
    assert _armed(restored) == (stages + ["preempt"], live)


@pytest.mark.parametrize("feature", sorted(FEATURES))
def test_mp_resume_run_arms_like_a_fresh_build(feature, tmp_path):
    cfg = _config(feature, tmp_path, backend="mp")
    fresh = _armed(create_simulator(cfg))
    assert "net" in fresh[0]
    restored, _manifest = load_checkpoint(_checkpoint_mid_run(cfg))
    assert _armed(restored) == fresh
    baseline = create_simulator(_config(feature, tmp_path / "plain",
                                        backend="mp")).run(REF)
    assert restored.resume_run() == baseline


@pytest.mark.parametrize("backend", ["inproc", "mp"])
def test_snapshots_carry_no_boundary_stages(backend, tmp_path):
    """Every stage armed at once, then snapshotted: the blob names
    none of them, and unpickles to a scheduler with none armed."""
    cfg = _config("metrics_interval", tmp_path, backend=backend)
    for feature in ("trace_clock_skew", "ckpt.every", "sample.ff_until"):
        FEATURES[feature][0](cfg, tmp_path)
    cfg.validate()
    assert create_simulator(cfg).scheduler.stage_names() == (
        ["skew", "metrics", "sample", "ckpt"]
        + (["net"] if backend == "mp" else []))
    root, name = _checkpoint_mid_run(cfg).rsplit("/", 1)
    _manifest, blobs = CheckpointStore(root).read(name)
    for label, blob in blobs.items():
        for stage in (b"PreemptGuard", b"ClockSkewSampler",
                      b"_sample_metrics", b"_net_stage"):
            assert stage not in blob, (label, stage)
    assert pickle.loads(blobs["coordinator"]).scheduler.stage_names() \
        == []


# -- the other end: a finished run is a tree ------------------------------------


def _cyclic_repro_objects(run) -> list:
    """Types of the ``repro`` objects only the collector would free,
    once ``run()`` and everything it made are dropped."""
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        run()
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        # What else turns up is the stdlib's own (``json.dump``'s
        # encoder closures), not ours.
        return sorted({type(obj).__qualname__ for obj in gc.garbage
                       if type(obj).__module__.startswith("repro.")})
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if enabled:
            gc.enable()


def _entry_points(tmp_path) -> dict:
    """Each way a run comes to exist, as a call that runs it to its end
    and drops it; what they restore from is written up front."""
    cfg = _config("ckpt.every", tmp_path)
    snapshot = _checkpoint_mid_run(_config("ckpt.every", tmp_path / "snap"))
    mp_cfg = _config("ckpt.every", tmp_path / "mp", backend="mp")
    mp_snapshot = _checkpoint_mid_run(
        _config("ckpt.every", tmp_path / "mp-snap", backend="mp"))
    sampled = _config("sample.ff_until", tmp_path / "lib")
    library = SnapshotLibrary(str(tmp_path / "lib" / "entries"))

    def preempted_job():
        try:
            run_job(cfg, REF, preempt_flag=_SetOnPoll(12))
        except JobPreempted:
            pass

    return {
        "run": lambda: create_simulator(cfg).run(REF),
        "mp run": lambda: create_simulator(mp_cfg).run(REF),
        "launch": lambda: launch(cfg, REF),
        "launch resume_dir": lambda: launch(cfg, REF, resume_dir=snapshot),
        "resume_with_recovery": lambda: resume_with_recovery(snapshot),
        "library prime + fork": lambda: launch(sampled, REF,
                                               library=library),
        "library fork": lambda: launch(sampled, REF, library=library),
        "mp load + resume_run": lambda: load_checkpoint(
            mp_snapshot)[0].resume_run(),
        "serve run_job, preempted": preempted_job,
    }


def test_a_dropped_finished_run_leaves_the_collector_nothing(tmp_path):
    entry_points = _entry_points(tmp_path)
    left = {name: _cyclic_repro_objects(run)
            for name, run in entry_points.items()}
    assert left == {name: [] for name in entry_points}
