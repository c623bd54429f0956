"""Figure 4: SPLASH simulation speedup vs host cores (1 -> 64).

The paper simulates a 32-tile target running 32-thread SPLASH kernels
and adds host cores: 1-8 within one machine, then 2, 4 and 8 machines
of 8 cores.  Speed-up is wall-clock, normalized to one host core.

Expected shape: near-linear scaling inside one machine for the
compute-heavy kernels (fmm, ocean, radix); a dip moving from 8 to 16
cores (the machine boundary) for communication-heavy apps; fft worst
(~2x at 64 cores in the paper), radix among the best (~20x).
"""

from __future__ import annotations

import pytest

from repro.analysis.figures import render_series
from repro.analysis.tables import Table
from repro.sim.simulator import Simulator
from repro.workloads.base import get_workload

from conftest import paper_config, save_artifact

#: (machines, cores per machine) host sweep -> 1..64 total cores.
HOST_SWEEP = [(1, 1), (1, 2), (1, 4), (1, 8), (2, 8), (4, 8), (8, 8)]

WORKLOADS = ["cholesky", "fft", "fmm", "lu_cont", "lu_non_cont",
             "ocean_cont", "ocean_non_cont", "radix",
             "water_nsquared", "water_spatial"]

NTHREADS = 32
SCALE = 1.0


def simulate(name: str, machines: int, cores: int) -> float:
    config = paper_config(num_tiles=NTHREADS, machines=machines,
                          cores=cores)
    simulator = Simulator(config)
    program = get_workload(name).main(nthreads=NTHREADS, scale=SCALE)
    return simulator.run(program).wall_clock_seconds


@pytest.mark.benchmark(group="fig4")
def test_fig4_host_scaling(benchmark):
    speedups = {}

    def run_sweep():
        for name in WORKLOADS:
            walls = [simulate(name, m, c) for m, c in HOST_SWEEP]
            speedups[name] = [walls[0] / w for w in walls]

    benchmark.pedantic(run_sweep, rounds=1, iterations=1)

    core_counts = [m * c for m, c in HOST_SWEEP]
    table = Table("Figure 4: speed-up vs host cores "
                  "(normalized to 1 core)",
                  ["app"] + [str(c) for c in core_counts])
    for name in WORKLOADS:
        table.add_row(name, *[f"{s:.2f}" for s in speedups[name]])
    chart = render_series("Figure 4 (speed-up at 64 host cores)",
                          WORKLOADS,
                          {"speedup@64": [speedups[n][-1]
                                          for n in WORKLOADS]},
                          unit="x")
    save_artifact("fig4_host_scaling",
                  table.render() + "\n\n" + chart,
                  data=table.to_dict())

    # Shape assertions (paper §4.2).
    for name in WORKLOADS:
        assert speedups[name][-1] > 1.0, f"{name} never sped up"
    # fft is the worst scaler; radix/fmm/ocean are among the best.
    best_scalers = max(speedups["radix"][-1], speedups["fmm"][-1],
                       speedups["ocean_cont"][-1])
    assert speedups["fft"][-1] < best_scalers
    # Within one machine, compute-heavy apps scale near-linearly.
    assert speedups["fmm"][3] > 4.0  # >= half-ideal at 8 cores
