"""Table 2: simulation wall-clock and slowdown vs native, 1 & 8 machines.

The paper reports, per SPLASH-2 benchmark at 32 target tiles / 32
threads: native execution time on one 8-core machine, simulation
wall-clock on one and eight host machines, and the slowdown ratios
(paper means 1751x / 1213x; medians 1307x / 600x; best case fmm at 41x
on 8 machines, worst fft at ~3930x).

Expected shape here: slowdowns of O(10-1000)x (our workloads are scaled
down ~10^3, which compresses fixed overheads); fmm the cheapest
benchmark to simulate; communication-heavy kernels gain least from
8 machines.
"""

from __future__ import annotations

import pytest

from repro.analysis.metrics import mean, median
from repro.analysis.tables import Table
from repro.sim.simulator import Simulator
from repro.workloads.base import get_workload

from conftest import paper_config, save_artifact, timed_run

WORKLOADS = ["cholesky", "fft", "fmm", "lu_cont", "lu_non_cont",
             "ocean_cont", "ocean_non_cont", "radix",
             "water_nsquared", "water_spatial"]
NTHREADS = 32
SCALE = 1.0


def simulate(name: str, machines: int):
    """Run one benchmark; returns (result, measured host seconds)."""
    config = paper_config(num_tiles=NTHREADS, machines=machines)
    simulator = Simulator(config)
    program = get_workload(name).main(nthreads=NTHREADS, scale=SCALE)
    return timed_run(lambda: simulator.run(program))


@pytest.mark.benchmark(group="table2")
def test_table2_slowdown(benchmark):
    rows = {}
    host_seconds = {}

    def run_all():
        for name in WORKLOADS:
            one, host1 = simulate(name, machines=1)
            eight, host8 = simulate(name, machines=8)
            rows[name] = (one.native_seconds, one.wall_clock_seconds,
                          one.slowdown, eight.wall_clock_seconds,
                          eight.slowdown)
            host_seconds[name] = (host1, host8)

    benchmark.pedantic(run_all, rounds=1, iterations=1)

    table = Table("Table 2: wall-clock and slowdown vs native "
                  "(times in seconds; host = measured on this machine)",
                  ["app", "native", "sim 1mc", "slowdown 1mc",
                   "sim 8mc", "slowdown 8mc", "host 1mc", "host 8mc"])
    for name in WORKLOADS:
        native, w1, s1, w8, s8 = rows[name]
        host1, host8 = host_seconds[name]
        table.add_row(name, f"{native:.6f}", f"{w1:.4f}",
                      f"{s1:,.0f}x", f"{w8:.4f}", f"{s8:,.0f}x",
                      f"{host1:.2f}", f"{host8:.2f}")
    slow1 = [rows[n][2] for n in WORKLOADS]
    slow8 = [rows[n][4] for n in WORKLOADS]
    table.add_row("Mean", "-", "-", f"{mean(slow1):,.0f}x", "-",
                  f"{mean(slow8):,.0f}x", "-", "-")
    table.add_row("Median", "-", "-", f"{median(slow1):,.0f}x", "-",
                  f"{median(slow8):,.0f}x", "-", "-")
    sidecar = {
        name: {
            "native_seconds": rows[name][0],
            "wall_clock_seconds_1mc": rows[name][1],
            "slowdown_1mc": rows[name][2],
            "wall_clock_seconds_8mc": rows[name][3],
            "slowdown_8mc": rows[name][4],
            "host_seconds_1mc": host_seconds[name][0],
            "host_seconds_8mc": host_seconds[name][1],
        }
        for name in WORKLOADS
    }
    save_artifact("table2_slowdown", table.render(), data=sidecar)

    # Shape assertions (paper §4.2, Table 2).
    # fmm has the highest computation-to-communication ratio and is the
    # cheapest benchmark to simulate.
    assert rows["fmm"][2] == min(slow1)
    # Simulation is much slower than native everywhere.
    assert all(s > 10 for s in slow1)
    # The compute-heavy kernels benefit from 8 machines.
    assert rows["fmm"][4] < rows["fmm"][2] * 1.6
    assert rows["ocean_cont"][4] < rows["ocean_cont"][2] * 1.6
