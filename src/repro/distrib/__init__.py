"""Distributed execution: multiprocess backend + parallel sweep pool.

Two independent ways to use more than one OS process:

* ``backend = "mp"`` — one simulation spread over forked workers, one
  per host process of the cluster layout (paper §3.5).  Execution is
  kept globally sequential, so metrics are byte-identical to the
  in-process backend; see :mod:`repro.distrib.coordinator`.
* the sweep pool — independent configurations run concurrently, one
  simulation per process; see :mod:`repro.distrib.pool`.
"""

from repro.distrib.coordinator import DistribSimulator, WorkerCluster
from repro.distrib.errors import (
    DistribError,
    ProgramTransportError,
    WireFormatError,
    WorkerCrashError,
    WorkerTimeoutError,
)
from repro.distrib.pool import run_jobs
from repro.distrib.wire import (
    WIRE_VERSION,
    PickledProgram,
    WorkloadRef,
    make_program_ref,
)

__all__ = [
    "DistribSimulator",
    "WorkerCluster",
    "DistribError",
    "ProgramTransportError",
    "WireFormatError",
    "WorkerCrashError",
    "WorkerTimeoutError",
    "run_jobs",
    "WIRE_VERSION",
    "PickledProgram",
    "WorkloadRef",
    "make_program_ref",
]
