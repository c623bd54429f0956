"""Sweep-pool tests: parallel results match serial, failures surface."""

from __future__ import annotations

import os
import signal
import struct
import threading
import time

import pytest

from repro.common.config import SimulationConfig
from repro.distrib.errors import (
    JobRetryExhaustedError,
    WorkerCrashError,
    WorkerTimeoutError,
)
from repro.distrib.pool import run_jobs
from repro.distrib.wire import WorkloadRef
from repro.serve import fleet
from repro.sim.experiment import repeat_runs, sweep

REF = WorkloadRef("matrix_multiply", nthreads=2, scale=0.05)


def _configs(n: int = 4):
    out = []
    for i in range(n):
        cfg = SimulationConfig(num_tiles=2, seed=100 + i)
        cfg.host.quantum_instructions = 200
        out.append(cfg)
    return out


def _crashing_program(ctx):
    yield from ctx.compute(5)
    raise RuntimeError("job exploded")


def _hanging_program(ctx):
    import time
    while True:  # never yields: the pool child is stuck forever
        time.sleep(0.05)
    yield  # pragma: no cover - makes this a generator program


def test_parallel_sweep_matches_serial():
    configs = _configs()
    serial = sweep(configs, REF)
    parallel = sweep(configs, REF, workers=2)
    assert len(parallel) == len(serial)
    for a, b in zip(serial, parallel):
        assert a.simulated_cycles == b.simulated_cycles
        assert a.counters == b.counters
        assert a.wall_clock_seconds == b.wall_clock_seconds


def test_parallel_repeat_matches_serial():
    cfg = _configs(1)[0]
    serial = repeat_runs(cfg, REF, runs=3)
    parallel = repeat_runs(cfg, REF, runs=3, workers=2)
    assert parallel.simulated_cycles == serial.simulated_cycles
    assert parallel.mean_wall_clock == serial.mean_wall_clock


def test_pool_results_keep_job_order():
    configs = _configs(5)
    results = run_jobs([(c, REF, ()) for c in configs], workers=3)
    serial = sweep(configs, REF)
    assert [r.simulated_cycles for r in results] \
        == [r.simulated_cycles for r in serial]


def test_pool_surfaces_child_failure_with_traceback():
    configs = _configs(2)
    with pytest.raises(WorkerCrashError) as excinfo:
        run_jobs([(c, _crashing_program, ()) for c in configs],
                 workers=2)
    assert "job exploded" in str(excinfo.value)
    assert "_crashing_program" in str(excinfo.value)


def test_serial_fallback_propagates_original_exception():
    """With one job (or workers=1) there is no pool: faults keep their
    original type exactly as a direct Simulator.run would raise them."""
    cfg = _configs(1)[0]
    with pytest.raises(RuntimeError, match="job exploded"):
        run_jobs([(cfg, _crashing_program, ())], workers=2)


def test_pool_forces_inproc_in_children():
    """A job config asking for the mp backend must not nest clusters."""
    cfg = _configs(1)[0]
    cfg.distrib.backend = "mp"
    results = run_jobs([(cfg, REF, ())], workers=2)
    baseline = sweep(_configs(1), REF)[0]
    assert results[0].simulated_cycles == baseline.simulated_cycles


def test_empty_and_single_worker_paths():
    assert run_jobs([], workers=4) == []
    cfg = _configs(1)[0]
    serial = run_jobs([(cfg, REF, ())], workers=1)
    assert serial[0].simulated_cycles \
        == sweep(_configs(1), REF)[0].simulated_cycles


def test_parallel_repeat_seed_protocol():
    cfg = _configs(1)[0]
    stats = repeat_runs(cfg, REF, runs=2, workers=2)
    assert len(stats.results) == 2


def test_pool_deadline_names_unfinished_jobs():
    """A pool whose children never respond must surface a diagnosable
    timeout — which jobs are stuck and whether workers are alive — and
    never hang the caller."""
    configs = _configs(2)
    with pytest.raises(WorkerTimeoutError) as excinfo:
        run_jobs([(c, _hanging_program, ()) for c in configs],
                 workers=2, timeout=1.0)
    message = str(excinfo.value)
    assert "2 job(s) unfinished" in message
    assert "indices 0, 1" in message
    assert "pool workers still alive" in message
    # The pool error is part of the DistribError hierarchy, not a bare
    # builtin TimeoutError that callers could mistake for an IPC-level
    # timeout.
    assert not isinstance(excinfo.value, TimeoutError)


def _slow_program(ctx, seconds):
    import time
    time.sleep(seconds)
    yield from ctx.compute(5)
    return "slept"


def test_pool_deadline_is_per_result_not_per_sweep():
    """``timeout`` is what the error says it is — the longest the pool
    waits for the *next* result: a sweep that keeps producing results
    outlives it."""
    # Two children, four rounds of 0.3 s: over a second in total, but
    # never more than a round between two results.
    jobs = [(cfg, _slow_program, (0.3,)) for cfg in _configs(8)]
    results = run_jobs(jobs, workers=2, timeout=1.0)
    assert [r.main_result for r in results] == ["slept"] * 8


def _die_once_program(ctx, marker):
    """SIGKILL the hosting pool child on the first attempt only."""
    yield from ctx.compute(5)
    if not os.path.exists(marker):
        with open(marker, "w") as fh:
            fh.write("first attempt died here")
        os.kill(os.getpid(), signal.SIGKILL)
    yield from ctx.compute(5)
    return "recovered"


def _die_always_program(ctx):
    """SIGKILL the hosting pool child on every attempt."""
    yield from ctx.compute(5)
    os.kill(os.getpid(), signal.SIGKILL)
    yield  # pragma: no cover


def test_pool_requeues_jobs_of_dead_worker(tmp_path):
    """A SIGKILLed child fails nothing: its in-flight job reruns on a
    survivor and the sweep completes with every result."""
    marker = str(tmp_path / "died-once")
    configs = _configs(3)
    jobs = [(configs[0], _die_once_program, (marker,)),
            (configs[1], REF, ()),
            (configs[2], REF, ())]
    results = run_jobs(jobs, workers=2)
    assert os.path.exists(marker), "no child ever died"
    assert len(results) == 3
    assert results[0].main_result == "recovered"
    baseline = run_jobs([(configs[1], REF, ())], workers=1)[0]
    assert results[1].simulated_cycles == baseline.simulated_cycles


def test_pool_retry_budget_names_the_job(tmp_path):
    """A job that keeps killing its hosts exhausts ``max_attempts`` and
    the error names the job and its start count."""
    configs = _configs(3)
    jobs = [(configs[0], _die_always_program, ()),
            (configs[1], REF, ()),
            (configs[2], REF, ())]
    with pytest.raises(JobRetryExhaustedError) as excinfo:
        run_jobs(jobs, workers=2, max_attempts=1)
    assert excinfo.value.job_index == 0
    assert excinfo.value.attempts == 1
    assert "sweep job 0" in str(excinfo.value)
    assert "retry budget" in str(excinfo.value)
    from repro.distrib.errors import DistribError
    assert isinstance(excinfo.value, DistribError)


def test_pool_deadline_truncates_long_unfinished_list():
    """With many stuck jobs the message stays bounded (first 8 + ...)."""
    configs = _configs(10)
    with pytest.raises(WorkerTimeoutError,
                       match=r"indices 0, 1, 2, 3, 4, 5, 6, 7, \.\.\."):
        run_jobs([(c, _hanging_program, ()) for c in configs],
                 workers=2, timeout=0.5)


def test_pool_never_forks_more_children_than_jobs(monkeypatch):
    """Two jobs on an eight-way pool must fork exactly two children:
    a surplus child would be pure fork cost (start, never be handed a
    job, exit)."""
    import repro.serve.fleet as fleet_mod
    real_get_context = fleet_mod.multiprocessing.get_context
    spawned = []

    class CountingCtx:
        def __init__(self, ctx):
            self._ctx = ctx

        def __getattr__(self, name):
            return getattr(self._ctx, name)

        def Process(self, *args, **kwargs):
            spawned.append(kwargs.get("name"))
            return self._ctx.Process(*args, **kwargs)

    monkeypatch.setattr(
        fleet_mod.multiprocessing, "get_context",
        lambda kind: CountingCtx(real_get_context(kind)))
    configs = _configs(2)
    results = run_jobs([(cfg, REF, ()) for cfg in configs], workers=8)
    assert len(results) == 2
    assert spawned == ["repro-pool-0", "repro-pool-1"]
    # The cap is on the job count, not the other way round.
    del spawned[:]
    assert len(run_jobs([(cfg, REF, ()) for cfg in _configs(3)],
                        workers=2)) == 3
    assert len(spawned) == 2


def test_single_job_takes_the_serial_path(monkeypatch):
    """One job — or a pool of one (or zero) workers — never forks at
    all: the serial fallback runs in-process regardless of the
    requested pool width."""
    import repro.serve.fleet as fleet_mod

    def explode(kind):  # any fork attempt fails the test
        raise AssertionError("pool forked for a single job")

    monkeypatch.setattr(fleet_mod.multiprocessing, "get_context",
                        explode)
    [result] = run_jobs([(_configs(1)[0], REF, ())], workers=8)
    assert result.simulated_cycles > 0
    jobs = [(cfg, REF, ()) for cfg in _configs(2)]
    assert len(run_jobs(jobs, workers=0)) == 2


@pytest.mark.parametrize("run", ["sweep", "repeat"])
def test_pooled_runs_each_write_their_own_trace(tmp_path, run):
    """Pooled like serial: run ``i`` of a sweep or a repeat traces into
    ``<trace>.run<i><ext>``, never all into one file."""
    configs = _configs(2)
    for cfg in configs:
        cfg.telemetry.enabled = True
        cfg.telemetry.events = ["sync"]
        cfg.telemetry.trace_path = str(tmp_path / "sweep.jsonl")
    if run == "sweep":
        sweep(configs, REF, workers=2)
    else:
        repeat_runs(configs[0], REF, runs=2, workers=2)
    assert sorted(os.listdir(tmp_path)) == ["sweep.run0.jsonl",
                                            "sweep.run1.jsonl"]


def test_pool_requeues_the_job_of_a_child_stalled_mid_result(tmp_path,
                                                            monkeypatch):
    """A child that stops part-way through its result frame is given up
    after the fleet's frame bound: its job reruns on a fresh child and
    the sweep completes, where the pool used to block on the missing
    bytes for good."""
    marker = str(tmp_path / "stalled-once")
    post = fleet._post

    def stall_once(channel, frame):
        # Children inherit this: the first result any of them sends is
        # torn and the child stalls; every other frame goes as usual.
        if frame[0] == "result":
            try:
                os.close(os.open(marker, os.O_CREAT | os.O_EXCL))
            except FileExistsError:
                pass
            else:
                channel.sock.sendall(struct.pack(">I", 1000) + b"half")
                time.sleep(60.0)
        post(channel, frame)

    monkeypatch.setattr(fleet, "_post", stall_once)
    monkeypatch.setattr(fleet, "_FRAME_STALL_S", 0.5, raising=False)
    configs = _configs(3)
    jobs = [(config, REF, ()) for config in configs]
    outcome = []
    sweep_thread = threading.Thread(
        target=lambda: outcome.append(run_jobs(jobs, workers=2)),
        daemon=True)
    sweep_thread.start()
    sweep_thread.join(timeout=30.0)
    assert not sweep_thread.is_alive(), "the pool hung on a torn result"
    assert os.path.exists(marker), "no child ever stalled"
    serial = [run_jobs([job], workers=1)[0] for job in jobs]
    assert [r.simulated_cycles for r in outcome[0]] \
        == [r.simulated_cycles for r in serial]
