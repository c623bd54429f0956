"""Checkpoint-accelerated sampling (:mod:`repro.sample`).

Three layers, each usable on its own:

* **Functional fast-forward** — :class:`~repro.sample.controller.
  SampleController` switches the simulator between ``detailed`` and
  ``functional`` execution at scheduler-quantum boundaries.  In
  functional mode every architectural state transition (caches,
  directory, backing store, message delivery, thread lifecycle) stays
  on the one shared code path, but the timing layers are bypassed:
  unit-cost cores, zero-latency network and DRAM, magic
  synchronization.
* **Snapshot library** — :class:`~repro.sample.library.
  SnapshotLibrary` stores the checkpoint written at the end of a
  fast-forward so configuration sweeps that share a functional prefix
  fast-forward *once* and fork every variant from the stored snapshot.
* **Interval sampling** — :mod:`repro.sample.intervals` alternates
  fast-forward / warmup / measured-detail windows and
  :mod:`repro.sample.stats` extrapolates whole-run cycle counts with
  Student-t confidence intervals.
"""
