"""Figure 5: 1024-thread matrix-multiply across 1-10 host machines.

The paper runs a matrix-multiply kernel with 1024 threads on 1024
target tiles and adds host machines: performance improves steadily,
reaching 3.85x at ten machines over one, with near-linear speed-up
countered by sequential per-process initialisation.

Expected shape: monotonic improvement with machine count; clearly
sublinear (the paper's 10-machine point is 3.85x, not 10x).
"""

from __future__ import annotations

import pytest

from repro.analysis.figures import render_series
from repro.analysis.tables import Table
from repro.sim.simulator import Simulator
from repro.workloads.base import get_workload

from conftest import paper_config, save_artifact

MACHINES = [1, 2, 4, 6, 8, 10]
TILES = 1024


def simulate(machines: int) -> float:
    config = paper_config(num_tiles=TILES, machines=machines)
    simulator = Simulator(config)
    program = get_workload("matrix_multiply").main(
        nthreads=TILES, block=6, steps=3)
    return simulator.run(program).wall_clock_seconds


@pytest.mark.benchmark(group="fig5")
def test_fig5_matmul_1024(benchmark):
    walls = []

    def run_sweep():
        walls.extend(simulate(m) for m in MACHINES)

    benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    speedups = [walls[0] / w for w in walls]

    table = Table("Figure 5: 1024-thread matrix-multiply",
                  ["machines", "wall-clock (s)", "speed-up"])
    for m, wall, s in zip(MACHINES, walls, speedups):
        table.add_row(m, f"{wall:.4f}", f"{s:.2f}x")
    chart = render_series("Figure 5 (speed-up vs machines)",
                          MACHINES, {"speed-up": speedups}, unit="x")
    save_artifact("fig5_matmul_1024",
                  table.render() + "\n\n" + chart,
                  data=table.to_dict())

    # Shape assertions (paper §4.2, Figure 5).
    assert speedups[-1] > 1.5, "no benefit from ten machines"
    assert speedups[-1] < 10.0, "scaling should be clearly sublinear"
    # Performance improves steadily: each point no worse than 80% of
    # its predecessor.
    for earlier, later in zip(speedups, speedups[1:]):
        assert later > earlier * 0.8
