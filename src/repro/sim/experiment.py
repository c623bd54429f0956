"""Sweep and repetition helpers for experiments.

The paper's accuracy studies (Table 3, Figure 6) run each configuration
ten times and report the mean simulated run-time, its percentage
deviation from a baseline ("error"), and the run-to-run coefficient of
variation.  These helpers implement exactly that protocol.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence

from repro.common.config import SimulationConfig
from repro.sim.results import SimulationResult
# ``create_simulator`` is re-exported: bench/tracer.py patches it here.
from repro.sim.runner import create_simulator, launch  # noqa: F401


def _per_run_trace_path(path: str, index: int) -> str:
    """Derive a distinct trace file per run: ``trace.json`` ->
    ``trace.run3.json``.  The extension is preserved so the trace
    format auto-detection (``.json`` = Chrome) is unaffected."""
    root, ext = os.path.splitext(path)
    return f"{root}.run{index}{ext}"


@dataclass
class RunStatistics:
    """Aggregate of repeated runs of one configuration."""

    results: List[SimulationResult]

    @property
    def simulated_cycles(self) -> List[int]:
        return [r.simulated_cycles for r in self.results]

    @property
    def mean_cycles(self) -> float:
        cycles = self.simulated_cycles
        if not cycles:
            return 0.0
        return sum(cycles) / len(cycles)

    @property
    def mean_wall_clock(self) -> float:
        if not self.results:
            return 0.0
        return (sum(r.wall_clock_seconds for r in self.results)
                / len(self.results))

    @property
    def cov_percent(self) -> float:
        """Coefficient of variation of simulated run-time, percent.

        Degenerate aggregates report 0.0 rather than raising: a single
        run has no variance estimate, and a zero mean (every run
        measured nothing) has no meaningful relative spread.
        """
        cycles = self.simulated_cycles
        if len(cycles) < 2:
            return 0.0
        mean = self.mean_cycles
        if mean == 0:
            return 0.0
        var = sum((c - mean) ** 2 for c in cycles) / len(cycles)
        return math.sqrt(var) / mean * 100.0

    def error_percent(self, baseline_mean_cycles: float) -> float:
        """Percentage deviation of mean run-time from a baseline.

        A zero or degenerate baseline (no runs) yields 0.0 — there is
        nothing to deviate from, and the aggregate tables render the
        run counts alongside so the degenerate case stays visible.
        """
        if baseline_mean_cycles == 0 or not self.results:
            return 0.0
        deviation = abs(self.mean_cycles - baseline_mean_cycles)
        return deviation / baseline_mean_cycles * 100.0  # check: allow D004 -- stats on run means


def _run_each(configs: Sequence[SimulationConfig],
              program: Callable[..., Any], args: tuple, workers: int,
              libraries: Optional[Sequence[Any]] = None
              ) -> List[SimulationResult]:
    """Run one job per config, in order: run ``i`` traces into its own
    file and forks from ``libraries[i]`` if given.  ``workers > 1``
    primes those prefixes here, then hands the jobs to the sweep pool;
    otherwise each goes through ``launch``, closures included."""
    jobs = []
    for index, config in enumerate(configs):
        if config.telemetry.trace_path:
            config = config.copy()
            config.telemetry.trace_path = _per_run_trace_path(
                config.telemetry.trace_path, index)
        jobs.append(config)
    libraries = libraries or [None] * len(jobs)
    if workers > 1:
        for config, lib in zip(jobs, libraries):
            if lib is not None:
                lib.ensure(config, program, args)
        from repro.distrib.pool import run_jobs
        return run_jobs([(config, program, args) for config in jobs],
                        workers)
    return [launch(config, program, args, library=lib)[0]
            for config, lib in zip(jobs, libraries)]


def repeat_runs(config: SimulationConfig,
                program: Callable[..., Any],
                args: tuple = (),
                runs: int = 10,
                base_seed: Optional[int] = None,
                workers: int = 1) -> RunStatistics:
    """Run the same program ``runs`` times with varied seeds.

    Varying only the seed reproduces the paper's protocol: the target
    program and architecture are fixed while host-side nondeterminism
    (scheduling, OS noise) differs run to run.

    With ``workers > 1`` the runs execute concurrently in a process
    pool (the program must then be picklable or carry ``resolve()``);
    results are identical to the serial path since each run is an
    independent, fully seeded simulation.
    """
    seed0 = config.seed if base_seed is None else base_seed
    configs = []
    for run_index in range(runs):
        run_config = config.copy()
        run_config.seed = seed0 + 7919 * run_index
        configs.append(run_config)
    return RunStatistics(_run_each(configs, program, args, workers))


def sweep(configs: Sequence[SimulationConfig],
          program: Callable[..., Any],
          args: tuple = (),
          workers: int = 1,
          share_prefix: bool = False,
          library: Optional[Any] = None) -> List[SimulationResult]:
    """Run one program across a sequence of configurations.

    ``workers > 1`` fans the configurations out across a process pool;
    ordering and per-configuration results match the serial path.

    ``share_prefix`` routes each variant through the snapshot library
    (:mod:`repro.sample.library`): variants that request a
    fast-forward (``sample.ff_until > 0``) and name a library
    directory (``sample.library``) prime the shared prefix exactly
    once and fork every later run from the stored switch-point
    checkpoint — the paper's checkpoint-accelerated sweep.  Pass
    ``library`` (a :class:`~repro.sample.library.SnapshotLibrary`) to
    share one instance — and its prime/hit accounting — with the
    caller; by default one instance per distinct library root is
    created.  With ``workers > 1`` the distinct prefixes are primed
    serially up front so the pool's processes all fork instead of
    racing to fast-forward.  Without ``share_prefix`` every variant
    runs unshared, on either path, whatever library its config names.
    """
    libraries: dict = {}

    def _library_for(config: SimulationConfig) -> Optional[Any]:
        if not share_prefix or config.sample.ff_until <= 0:
            return None
        # An explicitly-passed library serves every fast-forwarding
        # variant, whether or not its config names a root.
        if library is not None:
            return library
        if not config.sample.library:
            return None
        from repro.sample.library import SnapshotLibrary
        root = config.sample.library
        if root not in libraries:
            libraries[root] = SnapshotLibrary(root)
        return libraries[root]

    def _rooted(config: SimulationConfig,
                lib: Optional[Any]) -> SimulationConfig:
        # The config carries the sharing decision to ``launch`` (pool
        # children rebuild the library from it; the instance cannot
        # cross the process boundary): the library's root when this
        # variant shares, none when it does not.
        root = lib.root if lib is not None else None
        if config.sample.library == root:
            return config
        config = config.copy()
        config.sample.library = root
        return config

    libs = [_library_for(config) for config in configs]
    return _run_each([_rooted(config, lib)
                      for config, lib in zip(configs, libs)],
                     program, args, workers, libs)
