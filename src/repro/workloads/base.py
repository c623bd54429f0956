"""Workload registry and shared program-construction helpers."""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from typing import Any, Callable, Dict, Generator, List, Optional

from repro.common.errors import ConfigError
from repro.frontend.api import ThreadContext

#: A main-thread program: ``main(ctx)`` generator.
MainProgram = Callable[..., Generator]


@dataclass
class WorkloadFactory:
    """A named workload with tunable thread count and problem scale.

    ``build(nthreads, scale)`` returns the main program to hand to
    :meth:`repro.sim.simulator.Simulator.run`.  ``scale`` multiplies the
    default problem size; benchmarks use small scales so pure-Python
    simulation stays fast, while tests use tiny ones.
    """

    name: str
    build: Callable[..., MainProgram]
    description: str = ""
    #: Relative computation-to-communication ratio (documentation only).
    comm_intensity: str = "medium"

    def main(self, nthreads: int, scale: float = 1.0,
             **params: Any) -> MainProgram:
        return self.build(nthreads=nthreads, scale=scale, **params)


#: Factories registered so far: a kernel's appear when its module loads.
WORKLOADS: Dict[str, WorkloadFactory] = {}

#: Every built-in kernel's name -> the module of this package that
#: registers it.  :func:`get_workload` imports the module the first time
#: one of its names is asked for, so a run compiles only its own kernel.
KERNEL_MODULES: Dict[str, str] = {
    "barnes": "barnes",
    "blackscholes": "blackscholes",
    "cholesky": "cholesky",
    "fft": "fft",
    "fmm": "fmm",
    "lu_cont": "lu",
    "lu_non_cont": "lu",
    "matrix_multiply": "matmul",
    "ocean_cont": "ocean",
    "ocean_non_cont": "ocean",
    "radix": "radix",
    "water_nsquared": "water",
    "water_spatial": "water",
}


def register_workload(factory: WorkloadFactory) -> WorkloadFactory:
    if factory.name in WORKLOADS:
        raise ConfigError(f"duplicate workload {factory.name!r}")
    WORKLOADS[factory.name] = factory
    return factory


def workload_names() -> List[str]:
    """Every name :func:`get_workload` resolves, loaded or not."""
    return sorted(set(KERNEL_MODULES) | set(WORKLOADS))


def get_workload(name: str) -> WorkloadFactory:
    factory = WORKLOADS.get(name)
    if factory is None and name in KERNEL_MODULES:
        importlib.import_module(f"repro.workloads.{KERNEL_MODULES[name]}")
        factory = WORKLOADS.get(name)
    if factory is None:
        raise ConfigError(
            f"unknown workload {name!r}; known: {workload_names()}")
    return factory


# -- shared program fragments ----------------------------------------------------

def fork_join_main(worker: Callable[..., Generator],
                   nthreads: int,
                   setup: Optional[Callable[..., Generator]] = None,
                   teardown: Optional[Callable[..., Generator]] = None,
                   shared_args: Callable[..., tuple] = lambda s: (s,),
                   ) -> MainProgram:
    """Build the canonical SPLASH main: set up, fork, work, join, verify.

    ``setup(ctx)`` allocates and initialises shared state and returns
    it; ``shared_args(state)`` maps that state to the positional args
    each worker receives after its index; the main thread participates
    as worker 0 (as SPLASH mains do); ``teardown(ctx, state)`` verifies
    and may return the program result.
    """

    def main(ctx: ThreadContext):
        state = None
        if setup is not None:
            state = yield from setup(ctx)
        args = shared_args(state)
        threads = []
        for index in range(1, nthreads):
            thread = yield from ctx.spawn(worker, index, *args)
            threads.append(thread)
        yield from worker(ctx, 0, *args)
        yield from ctx.join_all(threads)
        if teardown is not None:
            result = yield from teardown(ctx, state)
            return result
        return None

    return main


def stream_touch(ctx: ThreadContext, base: int, count: int,
                 stride: int = 8, write: bool = False,
                 compute_per: int = 4):
    """Walk an array doing a load (and optionally a store) per element.

    The bread-and-butter inner loop of the streaming kernels: perfect
    spatial locality when ``stride`` equals the element size.
    """
    for i in range(count):
        address = base + i * stride
        value = yield from ctx.load_u64(address)
        if compute_per:
            yield from ctx.compute(compute_per)
        if write:
            yield from ctx.store_u64(address, (value * 2862933555777941757
                                               + 3037000493)
                                     & 0xFFFFFFFFFFFFFFFF)
