"""The ISSUE's multi-host acceptance run, at scale.

A 1024-tile simulation spanning two TCP-connected workers, with a live
shard migration mid-run, must finish with every simulated metric
byte-identical to the undisturbed in-process run and to the original
pipe transport.  This is the paper's distribution claim end to end:
host topology — including a host topology that *changes while the run
is in flight* — is invisible to the simulated machine.

What 1024 tiles cost the host before a run touches them is held here
too: a cache set exists once a line enters it, so a fresh build is
bounded in memory by its state, not by the target's cache geometry.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap

import pytest

import repro
from repro.common.config import SimulationConfig
from repro.distrib.wire import WorkloadRef
from repro.sim.runner import create_simulator
from repro.sim.simulator import Simulator
from repro.telemetry.events import EventCategory

TILES = 1024
REF = WorkloadRef("matrix_multiply", nthreads=8, scale=0.05)


def _config() -> SimulationConfig:
    cfg = SimulationConfig(num_tiles=TILES, seed=7)
    cfg.host.num_machines = 2
    cfg.host.cores_per_machine = 2
    cfg.host.quantum_instructions = 200
    return cfg


def _assert_same_metrics(result, reference) -> None:
    assert result.simulated_cycles == reference.simulated_cycles
    assert result.thread_cycles == reference.thread_cycles
    assert result.thread_start_cycles == reference.thread_start_cycles
    assert result.thread_instructions == reference.thread_instructions
    assert result.counters == reference.counters
    assert result.wall_clock_seconds == reference.wall_clock_seconds
    assert result.core_busy_seconds == reference.core_busy_seconds
    assert result.main_result == reference.main_result


#: Run in a fresh interpreter, so its max RSS is the build's and nothing
#: the test process already holds: on Linux that is ``VmHWM``, because
#: ``ru_maxrss`` carries the spawning process's RSS across ``exec``.
#: Prints max RSS in bytes, then the caches' set entries and the
#: (cache, set) pairs holding a line after a one-thread program has
#: stored to a few dozen lines.
_BUILD_1024 = textwrap.dedent("""
    import resource
    from repro import SimulationConfig, Simulator

    sim = Simulator(SimulationConfig(num_tiles=1024, seed=7))
    max_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
    try:
        with open("/proc/self/status") as status:
            max_rss = next(int(line.split()[1]) * 1024 for line in status
                           if line.startswith("VmHWM:"))
    except (OSError, StopIteration):
        pass

    def program(ctx, count):
        base = yield from ctx.calloc(64 * count, 64)
        for i in range(count):
            yield from ctx.store_u64(base + 64 * i, i)

    sim.run(program, (40,))
    caches = [cache for hierarchy in sim.engine.hierarchies
              for cache in (hierarchy.l1i, hierarchy.l1d, hierarchy.l2)]
    sets = sum(len(cache._sets) for cache in caches)
    touched = {(id(cache), (line.address >> cache._line_shift)
                % cache.num_sets) for cache in caches for line in cache}
    print(max_rss, sets, len(touched))
""")


def test_a_1024_tile_build_holds_only_the_sets_a_run_touched():
    src = os.path.dirname(os.path.dirname(repro.__file__))
    out = subprocess.run([sys.executable, "-c", _BUILD_1024], check=True,
                         env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True).stdout
    max_rss, sets, touched = map(int, out.split())
    assert max_rss <= 40 * 10 ** 6, f"{max_rss / 2 ** 20:.1f} MiB"
    assert touched > 40  # the stores' lines, in L1D and L2, plus code
    assert sets == touched  # an untouched set has no entry


@pytest.mark.slow
def test_1024_tiles_over_tcp_with_live_migration_matches_inproc():
    inproc_cfg = _config()
    inproc_cfg.validate()
    inproc = Simulator(inproc_cfg).run(REF)

    pipe_cfg = _config()
    pipe_cfg.distrib.backend = "mp"
    pipe_cfg.distrib.transport = "pipe"
    pipe_cfg.validate()
    pipes = create_simulator(pipe_cfg).run(REF)
    _assert_same_metrics(pipes, inproc)

    tcp_cfg = _config()
    tcp_cfg.distrib.backend = "mp"
    tcp_cfg.distrib.transport = "tcp"
    tcp_cfg.distrib.drain_turn = 3  # force a live migration mid-run
    tcp_cfg.telemetry.enabled = True
    tcp_cfg.telemetry.events = ["net"]
    tcp_cfg.validate()
    sim = create_simulator(tcp_cfg)
    tcp = sim.run(REF)
    _assert_same_metrics(tcp, inproc)

    events = [e for e in sim.telemetry.events
              if e.category == EventCategory.NET]
    migrated = [e for e in events if e.name == "worker.migrated"]
    assert migrated, "no live migration happened during the run"
    assert sum(e.args["tiles"] for e in migrated) >= TILES // 2
    assert any(e.name == "worker.left" for e in events)
