"""repro.ckpt: deterministic checkpoint/restore and fault tolerance.

Long simulations (the whole reason Graphite distributes them) need to
survive process crashes and host reboots.  This package provides:

- :mod:`repro.ckpt.snapshot` — the surgical pickler that turns a live
  simulator (or one worker's shard) into a self-contained blob, with
  host-side observers excised and thread generators replaced by their
  replay logs.
- :mod:`repro.ckpt.store` — the one on-disk store (checkpoints in the
  ``repro.ckpt/4`` format, library entries, results): a directory per
  entry with a JSON manifest of sha256 checksums, verified on read.
- :mod:`repro.ckpt.recovery` — loading a checkpoint back into a
  runnable simulator, plus the crash-recovery driver that restarts
  dead mp workers with exponential backoff.

The acid test, asserted in CI: for a fixed seed and config, a run
that checkpoints, dies and resumes produces a byte-identical
:class:`~repro.sim.results.SimulationResult` to an uninterrupted run,
on both the inproc and mp backends.
"""
