"""What a fleet worker runs: one job, preemptible between quanta.

Every fleet child (:func:`repro.serve.fleet.run_fleet_child` — serve
workers forked or dialled in, and the sweep pool's children) runs each
job through :func:`run_job`: the in-process backend, because one
process per simulation is already the right grain and nesting worker
clusters inside fleet children would oversubscribe the host.

Preemption rides the deterministic ``repro.ckpt/4`` snapshot path: the
supervisor raises the worker's preempt flag, a :class:`PreemptGuard`
stage polled between scheduler quanta writes one consistent checkpoint
and unwinds with :class:`JobPreempted`, and the worker hands the
checkpoint back.  When the job is later re-assigned, the worker
restores the snapshot and ``resume_run()`` continues it — to a result
byte-identical to an undisturbed run, the PR-5 guarantee the serve
tests re-assert end to end.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.common.config import SimulationConfig
from repro.common.errors import SimulationError


class JobPreempted(SimulationError):
    """Internal unwind: the running job was checkpointed off its worker."""

    def __init__(self, checkpoint_dir: str) -> None:
        super().__init__(f"preempted into {checkpoint_dir}")
        self.checkpoint_dir = checkpoint_dir


class PreemptGuard:
    """The ``preempt`` boundary stage: checkpoint on the daemon's signal.

    Runs between quanta (the consistent-snapshot boundary), last of
    the stages.  The flag is anything with ``is_set()``/``clear()``
    (the fleet child's in-band channel flag); when set, the guard
    clears it, writes one checkpoint and raises :class:`JobPreempted`.  Like every stage it lives outside the
    snapshot, so the restored job gets a fresh guard from
    :func:`repro.sim.runner.launch`.
    """

    def __init__(self, simulator: Any, flag: Any) -> None:
        self.simulator = simulator
        self.flag = flag

    def __call__(self, scheduler: Any) -> None:
        if not self.flag.is_set():
            return
        self.flag.clear()
        path = self.simulator.save_checkpoint()
        raise JobPreempted(path)


def run_job(config: SimulationConfig, program: Any, args: tuple = (),
            resume_dir: Optional[str] = None,
            preempt_flag: Any = None) -> Any:
    """Run (or resume) one job in this process; may raise JobPreempted.

    Goes through :func:`repro.sim.runner.launch` like every run.
    ``config.ckpt.dir`` names the job's private checkpoint directory —
    the daemon sets it so preemption has somewhere to snapshot to — and
    ``config.telemetry`` carries the span context of *this* assignment,
    which a resumed job adopts in place of its checkpointed one.  A
    config naming a snapshot library forks from the shared prefix
    (primed up front by a ``share_prefix`` sweep, or by whichever
    process gets there first: entry creation is atomic).
    """
    from repro.sim.runner import launch
    run_config = config.copy()
    run_config.distrib.backend = "inproc"
    return launch(run_config, program, args, resume_dir=resume_dir,
                  preempt_flag=preempt_flag)[0]
