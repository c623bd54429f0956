"""The serve worker: one fleet child, running one job at a time.

A worker is a long-lived forked process.  It blocks on its task pipe,
runs each job with the in-process backend (one process per simulation
is the right grain — exactly the sweep pool's rule), and reports
``(job_id, status, payload)`` on its result pipe, where status is
``ok`` (payload: the :class:`~repro.sim.results.SimulationResult`),
``preempted`` (payload: the checkpoint directory to resume from) or
``failed`` (payload: the traceback).

Preemption rides the deterministic ``repro.ckpt/3`` snapshot path: the
daemon sets the worker's preempt flag, a :class:`PreemptGuard` stage
polled between scheduler quanta writes one consistent checkpoint and
unwinds with :class:`JobPreempted`, and the worker hands the
checkpoint back.  When the job is later re-assigned, the worker
restores the snapshot and ``resume_run()`` continues it — to a result
byte-identical to an undisturbed run, the PR-5 guarantee the serve
tests re-assert end to end.
"""

from __future__ import annotations

import pickle
import traceback
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
    the stages.  The flag is a ``multiprocessing.Event``; when set,
    the guard clears it, writes one checkpoint and raises
    :class:`JobPreempted`.  Like every stage it lives outside the
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


def run_job(config: SimulationConfig, program: Any, args: tuple,
            resume_dir: Optional[str], preempt_flag: Any = None) -> Any:
    """Run (or resume) one job in this process; may raise JobPreempted.

    ``config.ckpt.dir`` names the job's private checkpoint directory —
    the daemon sets it so preemption has somewhere to snapshot to — and
    ``config.telemetry`` carries the span context of *this* assignment,
    which a resumed job adopts in place of its checkpointed one.  A
    config naming a snapshot library shares its fast-forward across
    the fleet (``docs/sampling.md``).
    """
    from repro.sim.runner import launch
    run_config = config.copy()
    run_config.distrib.backend = "inproc"
    result, _simulator = launch(run_config, program, args,
                                resume_dir=resume_dir,
                                preempt_flag=preempt_flag)
    try:
        pickle.dumps(result.main_result)
    except Exception:
        result.main_result = None  # cannot cross the result pipe
    return result


def worker_main(task_conn: Any, result_conn: Any,
                preempt_flag: Any) -> None:  # pragma: no cover - child
    """Fleet-child loop: pull jobs until the ``None`` sentinel."""
    while True:
        item = task_conn.recv()
        if item is None:
            return
        job_id, config, program, args, resume_dir = item
        # A preempt signal aimed at the *previous* occupant of this
        # worker (a lost race with its completion) must not leak into
        # this job.
        preempt_flag.clear()
        try:
            result = run_job(config, program, args, resume_dir,
                             preempt_flag)
            result_conn.send((job_id, "ok", result))
        except JobPreempted as preempted:
            result_conn.send((job_id, "preempted",
                              preempted.checkpoint_dir))
        except BaseException:
            result_conn.send((job_id, "failed", traceback.format_exc()))
