"""Distributed execution: multiprocess backend + parallel sweep pool.

Two independent ways to use more than one OS process:

* ``backend = "mp"`` — one simulation spread over forked workers, one
  per host process of the cluster layout (paper §3.5).  Execution is
  kept globally sequential, so metrics are byte-identical to the
  in-process backend; see :mod:`repro.distrib.coordinator`.
* the sweep pool — independent configurations run concurrently, one
  simulation per process; see :mod:`repro.distrib.pool`.
"""
