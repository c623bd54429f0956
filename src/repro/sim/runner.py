"""Backend selection and the launcher: build the right simulator for a
configuration, and start every kind of run from one place."""

from __future__ import annotations

import functools
from typing import Any, Optional, Tuple

from repro.common.config import SimulationConfig
from repro.sim.results import SimulationResult
from repro.sim.simulator import Simulator


def create_simulator(config: SimulationConfig) -> Simulator:
    """Instantiate the simulator for ``config.distrib.backend``.

    ``inproc`` (default) runs everything in this process; ``mp`` forks
    one worker per host process of the cluster layout and distributes
    tile threads across them (the import is deferred so the in-process
    path never pays for multiprocessing machinery).
    """
    config.validate()
    if config.distrib.backend == "mp":
        from repro.distrib.coordinator import DistribSimulator
        return DistribSimulator(config)
    return Simulator(config)


def launch(config: SimulationConfig, program: Any, args: tuple = (),
           *, resume_dir: Optional[str] = None,
           preempt_flag: Any = None,
           library: Optional[Any] = None
           ) -> Tuple[SimulationResult, Simulator]:
    """Run ``program`` under ``config``; the one place a run starts.

    The CLI, :func:`run_simulation`, sweeps, the sweep pool's children
    and serve workers all come through here, so the kind of run is
    chosen once: restore ``resume_dir`` (armed for ``config`` — the
    same job, possibly with re-assigned observability); or, when the
    config fast-forwards and a snapshot library is at hand (``library``,
    else the directory ``sample.library`` names), prime-or-fork the
    shared prefix and note ``{"key", "primed", "root"}`` under
    ``result.sample["library"]``; or build fresh.  With checkpointing
    enabled the run is driven by the crash-recovery loop
    (:func:`repro.ckpt.recovery.drive`).  ``preempt_flag`` (serve) arms
    the ``preempt`` boundary stage; its ``JobPreempted`` propagates.

    Returns ``(result, simulator)``: the simulator that completed, for
    callers that report its stats or host profile.
    """
    entry = None
    if resume_dir:
        from repro.ckpt.recovery import load_checkpoint
        simulator, _manifest = load_checkpoint(resume_dir, config=config)
        start = simulator.resume_run
    elif config.sample.ff_until > 0 and (library is not None
                                         or config.sample.library):
        if library is None:
            from repro.sample.library import SnapshotLibrary
            library = SnapshotLibrary(config.sample.library)
        key, primed = library.ensure(config, program, args)
        entry = {"key": key, "primed": primed, "root": library.root}
        simulator = library.fork(key, config)
        start = simulator.resume_run
    else:
        simulator = create_simulator(config)
        # Program references go to ``run`` unresolved: ``spawn_thread``
        # keeps the ref on the interpreter, which checkpoint snapshots
        # need (a resolved workload main is a closure and cannot
        # pickle).
        start = functools.partial(simulator.run, program, args)
    if preempt_flag is not None:
        from repro.serve.worker import PreemptGuard
        simulator.scheduler.set_stage(
            "preempt", 1, PreemptGuard(simulator, preempt_flag))
    if config.ckpt.enabled:
        from repro.ckpt.recovery import drive
        result, simulator = drive(simulator, start)
    else:
        result = start()
    if entry is not None:
        result.sample["library"] = entry
    return result, simulator


def run_simulation(config: SimulationConfig, program: Any,
                   args: tuple = ()) -> SimulationResult:
    """One-shot convenience: :func:`launch` and keep only the result."""
    return launch(config, program, args)[0]
