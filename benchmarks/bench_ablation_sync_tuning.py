"""Ablation: tuning the synchronization models (paper §4.3, Summary).

The paper observes that "the parameters to synchronization models can
be tuned to match application behavior.  For example, some applications
can tolerate large barrier intervals with no measurable degradation in
accuracy.  This allows LaxBarrier to achieve performance near that of
LaxP2P for some applications."  This benchmark quantifies both knobs:

* **barrier-interval sweep** — error stays near zero while simulator
  run-time falls as the interval grows;
* **LaxP2P slack sweep** — tighter slack costs sleeps (performance) and
  buys accuracy; looser slack converges to plain Lax.
"""

from __future__ import annotations

import pytest

from repro.analysis.tables import Table
from repro.sim.experiment import repeat_runs
from repro.workloads.base import get_workload

from conftest import paper_config, save_artifact

NTHREADS = 16
SCALE = 0.4
RUNS = 5
BARRIER_INTERVALS = [500, 1000, 5000, 20_000, 100_000]
SLACKS = [1_000, 5_000, 20_000, 100_000]


def run_with(model: str, **sync_kwargs):
    config = paper_config(num_tiles=NTHREADS)
    config.sync.model = model
    for key, value in sync_kwargs.items():
        setattr(config.sync, key, value)
    program = get_workload("ocean_cont").main(nthreads=NTHREADS,
                                              scale=SCALE)
    return repeat_runs(config, program, runs=RUNS)


@pytest.mark.benchmark(group="ablations")
def test_ablation_sync_tuning(benchmark):
    results = {}

    def run_all():
        results["lax"] = run_with("lax")
        results["baseline"] = run_with("lax_barrier",
                                       barrier_interval=500)
        for interval in BARRIER_INTERVALS:
            results[("barrier", interval)] = run_with(
                "lax_barrier", barrier_interval=interval)
        for slack in SLACKS:
            results[("p2p", slack)] = run_with(
                "lax_p2p", p2p_slack=slack, p2p_interval=slack // 4)

    benchmark.pedantic(run_all, rounds=1, iterations=1)

    baseline_cycles = results["baseline"].mean_cycles
    lax_wall = results["lax"].mean_wall_clock

    barrier_table = Table(
        "Ablation: LaxBarrier interval sweep (ocean_cont)",
        ["interval (cycles)", "run-time (norm to lax)", "error %"])
    for interval in BARRIER_INTERVALS:
        s = results[("barrier", interval)]
        barrier_table.add_row(interval,
                              f"{s.mean_wall_clock / lax_wall:.2f}",
                              f"{s.error_percent(baseline_cycles):.2f}")

    p2p_table = Table(
        "Ablation: LaxP2P slack sweep (ocean_cont)",
        ["slack (cycles)", "run-time (norm to lax)", "error %"])
    for slack in SLACKS:
        s = results[("p2p", slack)]
        p2p_table.add_row(slack,
                          f"{s.mean_wall_clock / lax_wall:.2f}",
                          f"{s.error_percent(baseline_cycles):.2f}")

    lax_error = results["lax"].error_percent(baseline_cycles)
    footer = ("plain lax: run-time 1.00, error "
              f"{lax_error:.2f}% (the no-synchronization endpoint)")
    save_artifact("ablation_sync_tuning",
                  barrier_table.render() + "\n\n" + p2p_table.render()
                  + "\n\n" + footer,
                  data={"barrier": barrier_table.to_dict(),
                        "p2p": p2p_table.to_dict()})

    # Larger barrier intervals are never slower than smaller ones
    # (monotone within noise), and the largest approaches Lax speed.
    tight = results[("barrier", 500)].mean_wall_clock
    loose = results[("barrier", 100_000)].mean_wall_clock
    assert loose < tight
    assert loose / lax_wall < 1.35
    # The loosest P2P slack behaves like Lax in error terms; the
    # tightest is far more accurate than Lax.
    tight_err = results[("p2p", 1_000)].error_percent(baseline_cycles)
    assert tight_err < max(lax_error, 1e-9) or tight_err < 1.0
