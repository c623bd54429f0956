"""Ablation: swapping the core performance model (paper §3.1).

The paper's modularity claim, demonstrated: replacing the in-order core
model with the out-of-order one changes every clock-derived quantity —
simulated run-time, memory and network utilization — while the
functional simulation (and therefore program results) is untouched.
Memory-bound kernels gain the most from the OoO window's memory-level
parallelism; compute-bound kernels gain roughly the dispatch width.
"""

from __future__ import annotations

import pytest

from repro.analysis.tables import Table
from repro.sim.simulator import Simulator
from repro.workloads.base import get_workload

from conftest import paper_config, save_artifact

WORKLOADS = ["fft", "fmm", "ocean_cont", "radix"]
NTHREADS = 8
SCALE = 0.5


def run_cycles(name: str, model: str):
    config = paper_config(num_tiles=NTHREADS)
    config.core.model = model
    simulator = Simulator(config)
    program = get_workload(name).main(nthreads=NTHREADS, scale=SCALE)
    result = simulator.run(program)
    return result.simulated_cycles, result.main_result


@pytest.mark.benchmark(group="ablations")
def test_ablation_core_models(benchmark):
    data = {}

    def run_all():
        for name in WORKLOADS:
            for model in ("in_order", "out_of_order"):
                data[(name, model)] = run_cycles(name, model)

    benchmark.pedantic(run_all, rounds=1, iterations=1)

    table = Table("Ablation: in-order vs out-of-order core model "
                  "(simulated cycles)",
                  ["app", "in-order", "out-of-order", "OoO speedup"])
    for name in WORKLOADS:
        in_order = data[(name, "in_order")][0]
        ooo = data[(name, "out_of_order")][0]
        table.add_row(name, in_order, ooo, f"{in_order / ooo:.2f}x")
    save_artifact("ablation_core_models", table)

    for name in WORKLOADS:
        # Functional results identical; OoO never slower.
        assert data[(name, "in_order")][1] == \
            data[(name, "out_of_order")][1]
        assert data[(name, "out_of_order")][0] <= \
            data[(name, "in_order")][0]
    # The memory-bound kernel gains more than the compute-bound one.
    gain = {n: data[(n, "in_order")][0] / data[(n, "out_of_order")][0]
            for n in WORKLOADS}
    assert gain["fft"] > gain["fmm"] * 0.9
