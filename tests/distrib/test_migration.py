"""TCP transport, live shard migration and elastic membership.

The load-bearing invariant throughout: tile placement is host-side
bookkeeping, so *any* membership change — a scripted drain, a policy
rebalance, a mid-run join — leaves every simulated metric byte-
identical to the undisturbed in-process run.
"""

from __future__ import annotations

import multiprocessing
import select
import socket

import pytest

from repro.common.config import SimulationConfig
from repro.distrib.wire import WorkloadRef
from repro.sim.runner import create_simulator
from repro.sim.simulator import Simulator
from repro.telemetry.events import EventCategory

REF = WorkloadRef("matrix_multiply", nthreads=4, scale=0.05)


def _config(**distrib) -> SimulationConfig:
    cfg = SimulationConfig(num_tiles=4, seed=11)
    cfg.host.num_machines = 2
    cfg.host.cores_per_machine = 2
    cfg.host.quantum_instructions = 200
    cfg.distrib.backend = "mp"
    for key, value in distrib.items():
        setattr(cfg.distrib, key, value)
    cfg.validate()
    return cfg


def _free_port() -> int:
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    return port


def _assert_same_metrics(result, reference) -> None:
    assert result.simulated_cycles == reference.simulated_cycles
    assert result.thread_cycles == reference.thread_cycles
    assert result.thread_start_cycles == reference.thread_start_cycles
    assert result.thread_instructions == reference.thread_instructions
    assert result.counters == reference.counters
    assert result.wall_clock_seconds == reference.wall_clock_seconds
    assert result.core_busy_seconds == reference.core_busy_seconds
    assert result.main_result == reference.main_result


def _net_events(sim):
    return [e for e in sim.telemetry.events
            if e.category == EventCategory.NET]


def _inproc_reference():
    cfg = SimulationConfig(num_tiles=4, seed=11)
    cfg.host.num_machines = 2
    cfg.host.cores_per_machine = 2
    cfg.host.quantum_instructions = 200
    cfg.validate()
    return Simulator(cfg).run(REF)


def test_tcp_transport_matches_pipes_and_inproc():
    inproc = _inproc_reference()
    pipes = create_simulator(_config(transport="pipe")).run(REF)
    tcp = create_simulator(_config(transport="tcp")).run(REF)
    _assert_same_metrics(pipes, inproc)
    _assert_same_metrics(tcp, inproc)


def test_scripted_drain_migrates_and_preserves_metrics():
    inproc = _inproc_reference()
    cfg = _config(transport="tcp", drain_turn=3)
    cfg.telemetry.enabled = True
    cfg.telemetry.events = ["net"]
    sim = create_simulator(cfg)
    result = sim.run(REF)
    _assert_same_metrics(result, inproc)
    names = [e.name for e in _net_events(sim)]
    assert "worker.migrated" in names
    assert "worker.left" in names
    migrated = next(e for e in _net_events(sim)
                    if e.name == "worker.migrated")
    assert migrated.args["tiles"] == 2  # a whole 2-tile shard moved


def test_drain_over_pipes_works_too():
    """Migration is carrier-agnostic: the same drain over the original
    pipe transport yields the same metrics."""
    inproc = _inproc_reference()
    cfg = _config(transport="pipe", drain_turn=2, drain_worker=0)
    result = create_simulator(cfg).run(REF)
    _assert_same_metrics(result, inproc)


def test_explicit_drain_worker_selects_the_victim():
    cfg = _config(transport="tcp", drain_turn=2, drain_worker=1)
    cfg.telemetry.enabled = True
    cfg.telemetry.events = ["net"]
    sim = create_simulator(cfg)
    sim.run(REF)
    left = next(e for e in _net_events(sim) if e.name == "worker.left")
    assert left.args["worker"] == 1


def test_elastic_join_absorbs_work_and_preserves_metrics():
    """A worker dialing in mid-run joins at a quantum boundary, and
    the rebalance policy hands it the slowest shard — with metrics
    identical to a run that never changed shape."""
    inproc = _inproc_reference()
    port = _free_port()
    cfg = _config(transport="tcp", listen=f"127.0.0.1:{port}",
                  rebalance="slowest", rebalance_every=2)
    cfg.telemetry.enabled = True
    cfg.telemetry.events = ["net"]
    # Use a longer workload so the joiner arrives mid-run.
    workload = WorkloadRef("matrix_multiply", nthreads=4, scale=0.3)
    reference_cfg = SimulationConfig(num_tiles=4, seed=11)
    reference_cfg.host.num_machines = 2
    reference_cfg.host.cores_per_machine = 2
    reference_cfg.host.quantum_instructions = 200
    reference_cfg.validate()
    reference = Simulator(reference_cfg).run(workload)

    from repro.distrib.worker import tcp_worker_main
    joiner = multiprocessing.get_context("fork").Process(
        target=tcp_worker_main, args=(f"127.0.0.1:{port}",),
        daemon=True)

    sim = create_simulator(cfg)
    fired = {"n": 0}

    def _join_then_net(scheduler):
        # Launch the joiner from inside the membership stage, and hold
        # that first firing (10 s at most) until its dial-in waits on
        # the listener: the join then lands mid-run however short the
        # run is, not whenever the forked process gets round to it.
        if fired["n"] == 0:
            joiner.start()
            select.select([sim._cluster.listener.fileno()], [], [], 10.0)
        fired["n"] += 1
        sim._net_stage(scheduler)

    sim.scheduler.set_stage("net", 1, _join_then_net)
    result = sim.run(workload)
    joiner.join(timeout=10.0)
    _assert_same_metrics(result, reference)
    names = [e.name for e in _net_events(sim)]
    assert "worker.joined" in names
    assert "worker.migrated" in names  # idle joiner absorbed a shard


def test_drain_with_checkpoint_resume_round_trip(tmp_path):
    """A checkpoint taken *after* a migration resumes with the moved
    ownership intact and finishes byte-identical."""
    inproc = _inproc_reference()
    cfg = _config(transport="pipe", drain_turn=2)
    cfg.ckpt.dir = str(tmp_path / "ckpt")
    cfg.ckpt.every = 4  # first periodic snapshot lands post-drain
    cfg.validate()
    sim = create_simulator(cfg)
    result = sim.run(REF)
    _assert_same_metrics(result, inproc)

    from repro.ckpt.recovery import load_checkpoint
    restored, _manifest = load_checkpoint(cfg.ckpt.dir)
    resumed = restored.resume_run()
    _assert_same_metrics(resumed, inproc)
