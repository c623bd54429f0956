"""Ablations on the simulation engine itself.

* **Dispatch quantum vs. limited-directory contention** — the Figure 9
  pointer thrashing requires near-instruction-granular interleaving of
  target threads; coarse quanta give each thread artificial temporal
  locality on shared lines and hide the contention (this is why
  bench_fig9 runs with a 100-instruction quantum).
* **Network model cost** — magic vs mesh vs mesh-with-contention on a
  communication-heavy kernel: modelled packet latency and simulated
  run-time respond in order.
"""

from __future__ import annotations

import pytest

from repro.analysis.tables import Table
from repro.sim.simulator import Simulator
from repro.workloads.base import get_workload

from conftest import paper_config, save_artifact

OPTIONS = 1024
TILES = 32
QUANTA = [100, 500, 2000, 10_000]


def dir4nb_penalty(quantum: int) -> float:
    """Slowdown of Dir4NB relative to full-map at one quantum size."""
    rois = {}
    for scheme in ("limited", "full_map"):
        config = paper_config(num_tiles=TILES)
        config.memory.directory_type = scheme
        config.memory.directory_max_sharers = 4
        config.host.quantum_instructions = quantum
        simulator = Simulator(config)
        program = get_workload("blackscholes").main(nthreads=TILES,
                                                    options=OPTIONS)
        rois[scheme] = simulator.run(program).parallel_cycles
    return rois["limited"] / rois["full_map"]


@pytest.mark.benchmark(group="ablations")
def test_ablation_quantum_vs_contention(benchmark):
    penalties = {}

    def run_all():
        for quantum in QUANTA:
            penalties[quantum] = dir4nb_penalty(quantum)

    benchmark.pedantic(run_all, rounds=1, iterations=1)

    table = Table("Ablation: dispatch quantum vs Dir4NB contention "
                  "(blackscholes, 32 tiles)",
                  ["quantum (instructions)",
                   "Dir4NB / full-map run-time"])
    for quantum in QUANTA:
        table.add_row(quantum, f"{penalties[quantum]:.2f}x")
    save_artifact("ablation_quantum", table)

    # Fine quanta expose the thrashing; coarse quanta hide it.
    assert penalties[100] > penalties[10_000]
    assert penalties[100] > 1.5


@pytest.mark.benchmark(group="ablations")
def test_ablation_network_models(benchmark):
    results = {}

    def run_all():
        for model in ("magic", "mesh", "mesh_contention"):
            config = paper_config(num_tiles=16)
            config.network.memory_model = model
            simulator = Simulator(config)
            program = get_workload("fft").main(nthreads=16, scale=0.5)
            result = simulator.run(program)
            packets = result.counter("network.memory_net.packets")
            latency = result.counter(
                "network.memory_net.total_latency_cycles")
            results[model] = (latency / packets if packets else 0.0,
                              result.simulated_cycles)

    benchmark.pedantic(run_all, rounds=1, iterations=1)

    table = Table("Ablation: memory-network model (fft, 16 tiles)",
                  ["model", "mean packet latency", "simulated cycles"])
    for model, (latency, cycles) in results.items():
        table.add_row(model, f"{latency:.1f}", cycles)
    save_artifact("ablation_network_models", table)

    assert results["magic"][0] == 0.0
    assert results["mesh"][0] > 0.0
    assert results["mesh_contention"][0] > results["mesh"][0]
    # More modelled latency -> longer simulated run-time.
    assert results["mesh"][1] > results["magic"][1]
