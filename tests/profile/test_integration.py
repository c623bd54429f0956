"""End-to-end profiling: non-perturbation, attribution, mp merge.

The contract that matters most: profiling is *purely observational*.
A profiled run must produce byte-identical simulation metrics to an
unprofiled one, on both backends.
"""

from __future__ import annotations

import pytest

from repro.ckpt.recovery import load_checkpoint
from repro.ckpt.store import CheckpointStore
from repro.common.config import SimulationConfig
from repro.distrib.wire import WorkloadRef
from repro.profile.report import PROFILE_SCHEMA
from repro.serve.store import canonical_result_bytes
from repro.sim.runner import create_simulator, launch

REF = WorkloadRef("fft", 4, 0.1)


def _config(backend: str, profiled: bool) -> SimulationConfig:
    config = SimulationConfig(num_tiles=4, seed=42)
    config.host.num_machines = 2
    config.host.cores_per_machine = 2
    config.distrib.backend = backend
    config.profile.enabled = profiled
    config.validate()
    return config


def _run(backend: str, profiled: bool):
    simulator = create_simulator(_config(backend, profiled))
    result = simulator.run(REF)
    return simulator, result


def _fingerprint(result):
    return (result.simulated_cycles, result.parallel_cycles,
            result.total_instructions, result.wall_clock_seconds,
            result.native_seconds, dict(sorted(result.counters.items())))


@pytest.mark.parametrize("backend", ["inproc", "mp"])
def test_profiling_never_perturbs_results(backend):
    _, plain = _run(backend, profiled=False)
    _, profiled = _run(backend, profiled=True)
    assert _fingerprint(plain) == _fingerprint(profiled)


def test_profile_composes_with_checkpoints_and_the_library(tmp_path):
    """``--profile --ckpt-dir --sample-library`` together: the result
    is the plain run's, and both the simulator forked from the library
    and one resumed from a checkpoint say where their host time went."""
    def run(root, observed):
        config = _config("inproc", profiled=observed)
        config.sample.ff_until = 2000
        config.sample.library = str(root / "lib")
        if observed:
            config.ckpt.dir = str(root / "ck")
            config.ckpt.every = 10
        config.validate()
        result, simulator = launch(config, REF)
        assert result.sample.pop("library")["primed"]
        return canonical_result_bytes(result), simulator

    plain, _ = run(tmp_path / "plain", observed=False)
    observed, forked = run(tmp_path / "observed", observed=True)
    assert observed == plain
    store = CheckpointStore(forked.config.ckpt.dir)
    resumed, _ = load_checkpoint(store.root, name=store.list()[0])
    assert canonical_result_bytes(resumed.resume_run()) == plain
    for simulator in (forked, resumed):
        subsystems = simulator.host_profile["subsystems"]
        assert subsystems["scheduler.quantum"]["calls"] > 0
        assert subsystems["frontend.interpret"]["self_seconds"] > 0


def test_unprofiled_run_collects_nothing():
    simulator, _ = _run("inproc", profiled=False)
    assert simulator.profiler is None
    assert simulator.host_profile is None


def test_inproc_profile_attributes_subsystems():
    simulator, result = _run("inproc", profiled=True)
    profile = simulator.host_profile
    assert profile is not None
    assert profile["schema"] == PROFILE_SCHEMA
    assert profile["backend"] == "inproc"
    assert profile["host_wall_seconds"] > 0
    subsystems = profile["subsystems"]
    for scope in ("scheduler.quantum", "frontend.interpret",
                  "core.model", "memory.controller", "network.fabric",
                  "sync.model"):
        assert scope in subsystems, scope
        assert subsystems[scope]["calls"] > 0
    # The scheduler scope encloses the others, so its cumulative time
    # dominates everyone's self time.
    sched_cum = subsystems["scheduler.quantum"]["cum_seconds"]
    assert all(row["self_seconds"] <= sched_cum + 1e-9
               for row in subsystems.values())
    assert profile["rates"]["simulated_cycles"] \
        == result.simulated_cycles
    assert profile["rates"]["cycles_per_host_second"] > 0
    assert profile["rates"]["achieved_slowdown"] > 0


def test_mp_profile_merges_worker_sections():
    simulator, _ = _run("mp", profiled=True)
    profile = simulator.host_profile
    assert profile is not None
    assert profile["backend"] == "mp"
    # Coordinator-side wire/idle attribution.
    for scope in ("mp.quantum_service", "mp.wire.encode",
                  "mp.wire.send", "mp.wire.decode", "mp.idle.wait"):
        assert scope in profile["subsystems"], scope
    # One section per worker with the busy/idle/serialization split.
    workers = profile["workers"]
    assert set(workers) == {"0", "1"}
    for summary in workers.values():
        assert summary["busy_seconds"] > 0
        assert summary["idle_seconds"] >= 0
        assert summary["serialize_seconds"] > 0
        assert 0 < summary["utilization"] <= 1
        assert "quantum.run" in summary["scopes"]
        assert "idle.wait" in summary["scopes"]
        assert "wire.encode" in summary["scopes"]
    skew = profile["worker_skew"]
    assert skew["skew_ratio"] >= 1.0
    assert skew["max_busy_seconds"] >= skew["min_busy_seconds"]


def test_profile_handed_to_chrome_sink(tmp_path):
    import json

    trace_path = tmp_path / "trace.json"
    config = _config("inproc", profiled=True)
    config.telemetry.enabled = True
    config.telemetry.events = ["all"]
    config.telemetry.trace_path = str(trace_path)
    config.validate()
    simulator = create_simulator(config)
    simulator.run(REF)
    trace = json.loads(trace_path.read_text())
    from repro.telemetry.chrome import HOST_PID
    host = [r for r in trace["traceEvents"] if r.get("pid") == HOST_PID]
    assert host, "host-profiler tracks missing from the Chrome trace"
    names = {r["args"]["name"] for r in host
             if r.get("name") == "thread_name"}
    assert "scheduler.quantum" in names
    slices = [r for r in host if r.get("ph") == "X"]
    assert all(r["dur"] >= 0 for r in slices)
