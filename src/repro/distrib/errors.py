"""Exception hierarchy of the distributed-execution backend.

All distribution failures derive from :class:`DistribError` (itself a
:class:`~repro.common.errors.SimulationError`), so callers can treat
"the cluster broke" separately from "the simulated program faulted":
target faults raised inside a worker are re-raised in the coordinator
with their original type, while infrastructure failures (crashed or
hung workers, protocol mismatches) surface as the classes below.
"""

from __future__ import annotations

from repro.common.errors import SimulationError


class DistribError(SimulationError):
    """Base class for distributed-backend failures."""


class WireFormatError(DistribError):
    """A frame could not be encoded or decoded."""


class ProgramTransportError(DistribError):
    """A target program or its arguments could not cross processes.

    The mp backend ships thread programs to their owning worker by
    pickling; module-level functions travel by reference, but closures
    and lambdas cannot.  Use a module-level worker function (as the
    bundled workloads do) or a :class:`repro.distrib.wire.WorkloadRef`.
    """


class WorkerCrashError(DistribError):
    """A worker process died or raised outside the simulated program.

    ``remote_traceback`` carries the worker's formatted traceback so
    the failure is debuggable from the coordinator process.
    """

    def __init__(self, message: str,
                 remote_traceback: str = "") -> None:
        super().__init__(message)
        self.remote_traceback = remote_traceback

    def __str__(self) -> str:
        base = super().__str__()
        if self.remote_traceback:
            return (f"{base}\n--- worker traceback ---\n"
                    f"{self.remote_traceback}")
        return base


class WorkerTimeoutError(DistribError):
    """A worker sent no frame within the configured timeout."""


class JobRetryExhaustedError(DistribError):
    """A sweep job kept landing on dying workers and ran out of retries.

    Raised by :class:`repro.distrib.pool.SweepPool` when one job has
    been requeued from dead workers more than the retry budget allows;
    ``job_index`` and ``attempts`` identify the offender.
    """

    def __init__(self, job_index: int, attempts: int) -> None:
        super().__init__(
            f"sweep job {job_index} lost to dying workers "
            f"{attempts} times; retry budget exhausted")
        self.job_index = job_index
        self.attempts = attempts
