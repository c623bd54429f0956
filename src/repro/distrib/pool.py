"""Worker pool for running independent simulations in parallel.

Experiment sweeps (Table 3's configuration grids, repeat-run CoV
protocols) are embarrassingly parallel: every configuration is a fully
independent simulation.  This pool fans such jobs out across OS
processes, one full simulation per job, and is where the mp backend's
wall-clock win comes from on multi-core hosts — single-simulation mp
execution is kept globally sequential for reproducibility (see
:mod:`repro.distrib.coordinator`).

The pool is a FIFO over forked :class:`~repro.serve.fleet.FleetSlot`
workers — the serve daemon's fleet under a different policy: the parent
hands each idle child its next job, so which child holds which job is
a field of the slot, and every child runs its jobs through
:func:`repro.serve.worker.run_job` (the in-process backend regardless
of the job config's ``distrib.backend``).
"""

from __future__ import annotations

import time
from collections import deque
from typing import Any, List, Optional, Sequence, Tuple

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


def run_jobs(jobs: Sequence[Job], workers: int,
             timeout: float = 3600.0,
             max_attempts: int = 3) -> List[SimulationResult]:
    """Run ``jobs`` across ``workers`` processes; results in job order.

    Never more children than jobs (a surplus child is pure fork cost),
    and a single job or worker runs serially in this process.
    ``timeout`` bounds the wait for the *next* result, not the sweep.

    Robustness: a pool worker that *dies* (SIGKILL, OOM) does not fail
    the sweep — it is forked again and its in-flight job requeued,
    each job up to ``max_attempts`` starts before
    :class:`JobRetryExhaustedError` names it and gives up.  A job that
    *raises* aborts the pool as :class:`WorkerCrashError` carrying the
    child's traceback (an application error would fail again on the
    next child).  Programs must be shippable (module-level functions
    or references with ``resolve()``); closures are rejected up front
    with a clear error.
    """
    from repro.serve.worker import run_job
    prepared = [(config, make_program_ref(program), tuple(args))
                for config, program, args in jobs]
    if workers <= 1 or len(prepared) <= 1:
        return [run_job(config, ref, args)
                for config, ref, args in prepared]

    from repro.serve.fleet import FleetSlot, wait_for_slots
    slots = [FleetSlot.fork(i, f"repro-pool-{i}")
             for i in range(min(workers, len(prepared)))]
    results: List[Optional[SimulationResult]] = [None] * len(prepared)
    queue = deque(range(len(prepared)))
    #: job index -> times a child has been handed it.
    attempts = [0] * len(prepared)
    unfinished = len(prepared)
    try:
        deadline = time.monotonic() + timeout
        while True:
            for slot in slots:
                taken = slot.take_result()
                if taken is not None:
                    index, status, payload = taken
                    if status != "ok":
                        raise WorkerCrashError(
                            f"sweep job {index} failed", payload)
                    results[index] = payload
                    unfinished -= 1
                    deadline = time.monotonic() + timeout
                elif not slot.alive():
                    lost = slot.job
                    if lost is not None:
                        if attempts[lost] >= max_attempts:
                            raise JobRetryExhaustedError(
                                lost, attempts[lost])
                        queue.appendleft(lost)
                    slot.restart()
            if not unfinished:
                return results
            for slot in slots:
                if slot.job is None and queue:
                    index = queue.popleft()
                    attempts[index] += 1
                    slot.assign(index, (index, *prepared[index], None))
            if not wait_for_slots(slots, deadline - time.monotonic()):
                stuck = [i for i, r in enumerate(results) if r is None]
                shown = ", ".join(map(str, stuck[:8]))
                if len(stuck) > 8:
                    shown += ", ..."
                alive = sum(slot.alive() for slot in slots)
                raise WorkerTimeoutError(
                    f"sweep pool produced no result for {timeout:.0f}s; "
                    f"{len(stuck)} job(s) unfinished (indices {shown}), "
                    f"{alive}/{len(slots)} pool workers still alive")
    finally:
        for slot in slots:
            slot.shutdown(grace=0.0)

