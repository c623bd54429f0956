"""Graphite reproduction: a parallel distributed multicore simulator.

A from-scratch Python implementation of the system described in
*Graphite: A Distributed Parallel Simulator for Multicores* (Miller et
al., HPCA 2010): an application-level simulator for tiled multicore
targets with swappable core / network / memory models, directory-based
MSI cache coherence (full-map, Dir_iNB, LimitLESS), a distributed
single-process illusion (MCP/LCP, syscall forwarding, futex emulation,
transparent thread spawn), and lax / barrier / point-to-point
synchronization models.

Quickstart::

    from repro import SimulationConfig, Simulator, get_workload

    config = SimulationConfig(num_tiles=32)
    simulator = Simulator(config)
    program = get_workload("fft").main(nthreads=32)
    result = simulator.run(program)
    print(result.simulated_cycles, result.slowdown)
"""

from repro.common.config import (
    CacheConfig,
    CoreConfig,
    DramConfig,
    HostConfig,
    MemoryConfig,
    NetworkConfig,
    SimulationConfig,
    SyncConfig,
)
from repro.common.errors import (
    ConfigError,
    DeadlockError,
    ProtocolError,
    SimulationError,
    TargetFault,
)
from repro.frontend.api import ThreadContext
from repro.sim.experiment import RunStatistics, repeat_runs, sweep
from repro.sim.results import SimulationResult
from repro.sim.simulator import Simulator
from repro.workloads.base import WORKLOADS, get_workload

__version__ = "1.0.0"

__all__ = [
    "CacheConfig",
    "ConfigError",
    "CoreConfig",
    "DeadlockError",
    "DramConfig",
    "HostConfig",
    "MemoryConfig",
    "NetworkConfig",
    "ProtocolError",
    "RunStatistics",
    "SimulationConfig",
    "SimulationError",
    "SimulationResult",
    "Simulator",
    "SyncConfig",
    "TargetFault",
    "ThreadContext",
    "WORKLOADS",
    "get_workload",
    "repeat_runs",
    "sweep",
    "__version__",
]
