"""Worker pool for running independent simulations in parallel.

Experiment sweeps (Table 3's configuration grids, repeat-run CoV
protocols) are embarrassingly parallel: every configuration is a fully
independent simulation.  This pool fans such jobs out across OS
processes, one full simulation per job, and is where the mp backend's
wall-clock win comes from on multi-core hosts — single-simulation mp
execution is kept globally sequential for reproducibility (see
:mod:`repro.distrib.coordinator`).

Each pool child runs its jobs with the in-process backend regardless
of the job config's ``distrib.backend``: one process per simulation is
already the right grain, and nesting worker clusters inside pool
children would oversubscribe the host.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import time
import traceback
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.common.config import SimulationConfig
from repro.distrib.errors import (
    JobRetryExhaustedError,
    WorkerCrashError,
    WorkerTimeoutError,
)
from repro.distrib.wire import make_program_ref
from repro.sim.results import SimulationResult

#: One sweep job: (config, program reference, program args).
Job = Tuple[SimulationConfig, Any, tuple]

#: Result-queue poll granularity (seconds).
_POLL_TICK = 0.1


def _effective_workers(workers: int, num_jobs: int) -> int:
    """Children the pool actually forks: never more than there are
    jobs (surplus children would start, find the queue drained and
    exit — pure fork cost), never fewer than one."""
    return max(1, min(workers, num_jobs))


def _run_one(config: SimulationConfig, ref: Any,
             args: tuple) -> SimulationResult:
    """One job, in this process, on the in-process backend — through
    :func:`repro.sim.runner.launch` like every run, so a job whose
    config names a snapshot library forks from the shared prefix
    (primed up front by a ``share_prefix`` sweep, or by whichever
    process gets there first: entry creation is atomic)."""
    from repro.sim.runner import launch
    run_config = config.copy()
    run_config.distrib.backend = "inproc"
    return launch(run_config, ref, args)[0]


def _pool_child(task_queue, result_queue,
                marker) -> None:  # pragma: no cover
    """Child loop: pull jobs until the sentinel, run each in-process.

    A start marker (job index + this child's pid) precedes every job so
    the parent can attribute in-flight jobs to a worker — that is what
    lets it requeue the jobs of a crashed worker onto survivors.  The
    marker travels over a dedicated per-child pipe, NOT the result
    queue: ``Connection.send`` writes synchronously in this thread (and
    small messages are single atomic writes), whereas a ``Queue.put``
    is flushed by a background feeder thread that a SIGKILL right after
    a short job would silently take down marker-unsent.
    """
    while True:
        item = task_queue.get()
        if item is None:
            return
        index, config, ref, args = item
        marker.send((index, os.getpid()))
        try:
            result = _run_one(config, ref, args)
            try:
                pickle.dumps(result.main_result)
            except Exception:
                result.main_result = None
            result_queue.put((index, "ok", result))
        except BaseException:
            result_queue.put((index, "error", traceback.format_exc()))


def run_jobs(jobs: Sequence[Job], workers: int,
             timeout: float = 3600.0,
             max_attempts: int = 3) -> List[SimulationResult]:
    """Run ``jobs`` across ``workers`` processes; results in job order.

    Robustness: a pool worker that *dies* (SIGKILL, OOM) does not fail
    the sweep — its in-flight jobs are requeued onto the surviving
    workers, each job up to ``max_attempts`` starts before
    :class:`JobRetryExhaustedError` names it and gives up.  A job that
    *raises* still aborts the pool as :class:`WorkerCrashError`
    carrying the child's traceback (an application error would fail
    again on a survivor), as does the death of every worker.  Programs
    must be shippable (module-level functions or references with
    ``resolve()``); closures are rejected up front with a clear error.
    """
    jobs = list(jobs)
    if not jobs:
        return []
    prepared = [(config, make_program_ref(program), tuple(args))
                for config, program, args in jobs]
    workers = _effective_workers(workers, len(prepared))
    if workers == 1:
        return [_run_one(config, ref, args)
                for config, ref, args in prepared]

    try:
        ctx = multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX hosts
        ctx = multiprocessing.get_context("spawn")
    task_queue = ctx.Queue()
    result_queue = ctx.Queue()
    procs = []
    markers = []
    for i in range(workers):
        reader, writer = ctx.Pipe(duplex=False)
        procs.append(ctx.Process(target=_pool_child,
                                 args=(task_queue, result_queue, writer),
                                 name=f"repro-pool-{i}", daemon=True))
        markers.append((reader, writer))
    for proc in procs:
        proc.start()
    for reader, writer in markers:
        writer.close()  # children hold the write ends now
    #: job index -> pid of the child currently running it.
    started_by: Dict[int, int] = {}
    #: job index -> times a child has started it.
    attempts: Dict[int, int] = {i: 0 for i in range(len(prepared))}
    #: pids whose lost jobs were already requeued.
    reaped_pids: set = set()

    def _drain_start_markers() -> None:
        for reader, _ in markers:
            try:
                while reader.poll():
                    index, pid = reader.recv()
                    attempts[index] += 1
                    started_by[index] = pid
            except (EOFError, OSError):
                continue

    def _requeue_from_dead_workers() -> None:
        """Hand the in-flight jobs of newly dead children to survivors."""
        _drain_start_markers()
        for proc in procs:
            if proc.is_alive() or proc.pid in reaped_pids:
                continue
            reaped_pids.add(proc.pid)
            lost = sorted(i for i, pid in started_by.items()
                          if pid == proc.pid)
            for index in lost:
                del started_by[index]
                if attempts[index] >= max_attempts:
                    raise JobRetryExhaustedError(index, attempts[index])
                config, ref, args = prepared[index]
                task_queue.put((index, config, ref, args))

    try:
        for index, (config, ref, args) in enumerate(prepared):
            task_queue.put((index, config, ref, args))

        results: List[Optional[SimulationResult]] = [None] * len(prepared)
        received = 0
        deadline = time.monotonic() + timeout
        while received < len(prepared):
            try:
                index, status, payload = result_queue.get(
                    timeout=_POLL_TICK)
            except Exception:
                if time.monotonic() > deadline:
                    unfinished = [i for i, r in enumerate(results)
                                  if r is None]
                    shown = ", ".join(map(str, unfinished[:8]))
                    if len(unfinished) > 8:
                        shown += ", ..."
                    alive = sum(1 for p in procs if p.is_alive())
                    raise WorkerTimeoutError(
                        f"sweep pool produced no result for "
                        f"{timeout:.0f}s; {len(unfinished)} job(s) "
                        f"unfinished (indices {shown}), "
                        f"{alive}/{len(procs)} pool workers still "
                        f"alive") from None
                dead = [p for p in procs if not p.is_alive()]
                if len(dead) == len(procs) and result_queue.empty():
                    codes = [p.exitcode for p in procs]
                    raise WorkerCrashError(
                        f"all pool workers exited (codes {codes}) with "
                        f"{len(prepared) - received} jobs unfinished")
                _requeue_from_dead_workers()
                continue
            if status == "error":
                raise WorkerCrashError(
                    f"sweep job {index} failed", payload)
            started_by.pop(index, None)
            if results[index] is None:
                results[index] = payload
                received += 1
            # else: a requeued duplicate of a result that raced the
            # worker's death; the first copy already counted.
        # All results are in; only now may the children drain their
        # sentinels (earlier sentinels would beat requeued jobs to the
        # survivors and starve them).
        for _ in procs:
            task_queue.put(None)
        return [r for r in results if r is not None]
    finally:
        for proc in procs:
            if proc.is_alive():
                proc.terminate()
        for proc in procs:
            proc.join(timeout=1.0)
        for reader, _ in markers:
            reader.close()
        task_queue.close()
        result_queue.close()


def parallel_sweep(configs: Sequence[SimulationConfig],
                   program: Any, args: tuple = (),
                   workers: int = 1) -> List[SimulationResult]:
    """Parallel counterpart of :func:`repro.sim.experiment.sweep`."""
    return run_jobs([(c, program, args) for c in configs], workers)


def parallel_repeat(config: SimulationConfig, program: Any,
                    args: tuple = (), runs: int = 10,
                    base_seed: Optional[int] = None,
                    workers: int = 1) -> List[SimulationResult]:
    """Parallel counterpart of the repeat-runs seed protocol."""
    seed0 = config.seed if base_seed is None else base_seed
    jobs = []
    for run_index in range(runs):
        run_config = config.copy()
        run_config.seed = seed0 + 7919 * run_index
        jobs.append((run_config, program, args))
    return run_jobs(jobs, workers)
