"""Table 3 / Figure 6: synchronization models — performance & accuracy.

The paper runs lu_cont, ocean_cont and radix ten times each under Lax,
LaxP2P and LaxBarrier on one and four host machines and reports:
run-time normalized to Lax on one machine (performance), scaling from
one to four machines, percentage deviation of mean simulated run-time
from the LaxBarrier baseline (error), and the coefficient of variation
across runs (CoV).  Paper values (Table 3): run-times 1.0/0.55 (Lax),
1.10/0.59 (LaxP2P), 1.82/1.09 (LaxBarrier); errors 7.56 / 1.28 / -;
CoV 0.58 / 0.31 / 0.09.

Parameters follow the paper, scaled to our run lengths: barrier quantum
1,000 cycles; the LaxP2P slack maps the paper's 100k cycles on
minute-long runs to 10k on ours.

Expected shape: Lax fastest, worst error and CoV; LaxBarrier slowest,
error reference, best CoV; LaxP2P close to Lax in speed and close to
LaxBarrier in accuracy.
"""

from __future__ import annotations

import pytest

from repro.analysis.figures import render_series
from repro.analysis.tables import Table
from repro.sim.experiment import repeat_runs
from repro.workloads.base import get_workload

from conftest import paper_config, save_artifact

BENCHMARKS = ["lu_cont", "ocean_cont", "radix"]
MODELS = ["lax", "lax_p2p", "lax_barrier"]
MACHINE_COUNTS = [1, 4]
RUNS = 10
NTHREADS = 32
SCALE = 0.3

BARRIER_INTERVAL = 1000
P2P_SLACK = 10_000
P2P_INTERVAL = 2_500


def run_stats(name: str, model: str, machines: int):
    config = paper_config(num_tiles=NTHREADS, machines=machines)
    config.sync.model = model
    config.sync.barrier_interval = BARRIER_INTERVAL
    config.sync.p2p_slack = P2P_SLACK
    config.sync.p2p_interval = P2P_INTERVAL
    program = get_workload(name).main(nthreads=NTHREADS, scale=SCALE)
    return repeat_runs(config, program, runs=RUNS)


def avg(values):
    return sum(values) / len(values)


@pytest.mark.benchmark(group="table3")
def test_table3_sync_models(benchmark):
    stats = {}

    def run_all():
        for name in BENCHMARKS:
            for model in MODELS:
                for machines in MACHINE_COUNTS:
                    stats[(name, model, machines)] = run_stats(
                        name, model, machines)

    benchmark.pedantic(run_all, rounds=1, iterations=1)

    # --- Figure 6: per-benchmark breakdown --------------------------------
    fig6 = Table("Figure 6: per-benchmark sync-model comparison "
                 f"({RUNS} runs each)",
                 ["app", "mc", "model", "run-time (norm)", "error %",
                  "CoV %"])
    agg = {(model, mc): {"runtime": [], "error": [], "cov": []}
           for model in MODELS for mc in MACHINE_COUNTS}
    for name in BENCHMARKS:
        lax_wall = stats[(name, "lax", 1)].mean_wall_clock
        for machines in MACHINE_COUNTS:
            baseline = stats[(name, "lax_barrier", machines)].mean_cycles
            for model in MODELS:
                s = stats[(name, model, machines)]
                runtime = s.mean_wall_clock / lax_wall
                error = s.error_percent(baseline)
                fig6.add_row(name, machines, model, f"{runtime:.2f}",
                             f"{error:.2f}", f"{s.cov_percent:.2f}")
                agg[(model, machines)]["runtime"].append(runtime)
                agg[(model, machines)]["error"].append(error)
                agg[(model, machines)]["cov"].append(s.cov_percent)

    # --- Table 3: means over the benchmarks --------------------------------
    table3 = Table("Table 3: mean performance and accuracy "
                   "(run-time normalized to Lax on 1 machine)",
                   ["metric"] + MODELS)
    for metric, fmt in (("runtime 1mc", "{:.2f}"),
                        ("runtime 4mc", "{:.2f}")):
        mc = 1 if "1mc" in metric else 4
        table3.add_row(metric, *[fmt.format(avg(agg[(m, mc)]["runtime"]))
                                 for m in MODELS])
    table3.add_row("scaling 1->4mc",
                   *[f"{avg(agg[(m, 1)]['runtime']) / avg(agg[(m, 4)]['runtime']):.2f}"
                     for m in MODELS])
    table3.add_row("error % (vs LaxBarrier)",
                   *[f"{avg(agg[(m, 1)]['error'] + agg[(m, 4)]['error']):.2f}"
                     for m in MODELS])
    table3.add_row("CoV %",
                   *[f"{avg(agg[(m, 1)]['cov'] + agg[(m, 4)]['cov']):.2f}"
                     for m in MODELS])

    chart = render_series(
        "Figure 6b (mean error %, lower is better)", MODELS,
        {"error": [avg(agg[(m, 1)]["error"] + agg[(m, 4)]["error"])
                   for m in MODELS]},
        unit="%")
    save_artifact("table3_fig6_sync_models",
                  table3.render() + "\n\n" + fig6.render()
                  + "\n\n" + chart,
                  data={"table3": table3.to_dict(),
                        "fig6": fig6.to_dict()})

    # Shape assertions (paper §4.3).  Run-time ordering is asserted on
    # one machine; at four machines our scaled-down workloads are
    # communication-bound and the paper's multi-machine run-time gains
    # do not reproduce (see EXPERIMENTS.md).
    lax1 = agg[("lax", 1)]
    p2p1 = agg[("lax_p2p", 1)]
    barrier1 = agg[("lax_barrier", 1)]
    # Lax outperforms both; LaxBarrier is the slowest.
    assert avg(lax1["runtime"]) <= avg(p2p1["runtime"])
    assert avg(barrier1["runtime"]) > avg(lax1["runtime"])
    # LaxP2P stays within ~30% of Lax (paper: ~10%).
    assert avg(p2p1["runtime"]) < 1.4 * avg(lax1["runtime"])
    for mc in MACHINE_COUNTS:
        # LaxP2P's error is well below Lax's at every machine count.
        assert avg(agg[("lax_p2p", mc)]["error"]) < \
            avg(agg[("lax", mc)]["error"])
    # Lax shows the worst run-to-run variability of the three.
    lax_cov = avg(agg[("lax", 1)]["cov"] + agg[("lax", 4)]["cov"])
    barrier_cov = avg(agg[("lax_barrier", 1)]["cov"]
                      + agg[("lax_barrier", 4)]["cov"])
    assert barrier_cov < lax_cov
