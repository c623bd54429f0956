"""Worker lifecycle robustness: crashes, timeouts, clean teardown."""

from __future__ import annotations

import os
import signal
import sys

import pytest

from repro.common.config import SimulationConfig
from repro.distrib.coordinator import WorkerCluster
from repro.distrib.errors import WorkerCrashError, WorkerTimeoutError
from repro.distrib.wire import FrameKind
from repro.host.cluster import ClusterLayout
from repro.sim.runner import run_simulation


def _cluster_config(num_tiles: int = 4,
                    timeout: float = 2.0) -> SimulationConfig:
    cfg = SimulationConfig(num_tiles=num_tiles, seed=5)
    cfg.host.num_machines = 2
    cfg.host.cores_per_machine = 2
    cfg.distrib.worker_timeout = timeout
    cfg.distrib.shutdown_timeout = 2.0
    cfg.validate()
    return cfg


def _failing_program(ctx):
    yield from ctx.compute(10)
    raise ZeroDivisionError("simulated application fault")


def test_cluster_starts_and_shuts_down_cleanly():
    cfg = _cluster_config()
    layout = ClusterLayout(cfg.num_tiles, cfg.host)
    cluster = WorkerCluster(layout, cfg)
    assert cluster.num_workers == 2
    stats = cluster.collect_stats()
    assert stats == [{}, {}]  # alive, responsive, nothing recorded yet
    cluster.shutdown()
    for proc in cluster._procs:
        assert not proc.is_alive()


def test_killed_worker_surfaces_as_crash_not_hang():
    cfg = _cluster_config(timeout=30.0)
    layout = ClusterLayout(cfg.num_tiles, cfg.host)
    with WorkerCluster(layout, cfg) as cluster:
        os.kill(cluster._procs[1].pid, signal.SIGKILL)
        cluster._procs[1].join(timeout=5.0)
        with pytest.raises(WorkerCrashError, match="worker 1"):
            cluster.send(1, FrameKind.COLLECT_STATS, None)
            cluster.recv(1)


def test_silent_worker_surfaces_as_timeout():
    cfg = _cluster_config(timeout=0.5)
    layout = ClusterLayout(cfg.num_tiles, cfg.host)
    with WorkerCluster(layout, cfg) as cluster:
        # Workers only speak when spoken to; an unsolicited recv waits
        # on a healthy-but-silent worker until the timeout trips.
        with pytest.raises(WorkerTimeoutError, match="worker 0"):
            cluster.recv(0)


def test_timeout_is_distrib_error_not_builtin():
    """The deadline error names the worker and belongs to the distrib
    hierarchy — callers must never see a bare builtin TimeoutError."""
    cfg = _cluster_config(timeout=0.5)
    layout = ClusterLayout(cfg.num_tiles, cfg.host)
    with WorkerCluster(layout, cfg) as cluster:
        with pytest.raises(WorkerTimeoutError) as excinfo:
            cluster.recv(1)
    assert "worker 1" in str(excinfo.value)
    assert not isinstance(excinfo.value, TimeoutError)
    from repro.distrib.errors import DistribError
    assert isinstance(excinfo.value, DistribError)


def test_silent_worker_times_out_under_profiling():
    """The timed recv (``mp.idle.wait`` around it, ``mp.wire.decode``
    inside) must preserve the deadline behaviour, worker id included,
    and close its scope on the way out."""
    from repro.profile.timers import HostProfiler
    from repro.profile.instrument import installed

    cfg = _cluster_config(timeout=0.5)
    cfg.profile.enabled = True
    layout = ClusterLayout(cfg.num_tiles, cfg.host)
    profiler = HostProfiler()
    with installed(profiler, "mp"), \
            WorkerCluster(layout, cfg) as cluster:
        with pytest.raises(WorkerTimeoutError, match="worker 0"):
            cluster.recv(0)
    assert profiler.scopes["mp.idle.wait"].calls == 1
    assert profiler.scopes["mp.wire.encode"].calls >= 2  # the HELLOs


def test_target_fault_reraised_with_remote_traceback():
    """A crash inside the simulated program keeps its type and carries
    the worker's traceback; the cluster still tears down afterwards."""
    cfg = _cluster_config()
    cfg.distrib.backend = "mp"
    with pytest.raises(ZeroDivisionError, match="application fault") \
            as excinfo:
        run_simulation(cfg, _failing_program)
    if sys.version_info >= (3, 11):  # exception notes
        notes = getattr(excinfo.value, "__notes__", [])
        assert any("worker traceback" in note for note in notes)
        assert any("_failing_program" in note for note in notes)


def test_failed_run_does_not_leak_workers():
    cfg = _cluster_config()
    cfg.distrib.backend = "mp"
    from repro.sim.runner import create_simulator
    sim = create_simulator(cfg)
    with pytest.raises(ZeroDivisionError):
        sim.run(_failing_program)
    assert sim._cluster is None  # run() tore the cluster down
