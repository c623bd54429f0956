"""Figure 7: clock skew over the course of an fmm run, per sync model.

The paper samples all tile clocks during an fmm run, computes the
deviation of each from the approximate global clock, and plots the
max/min envelope per interval for Lax, LaxP2P and LaxBarrier.

Expected shape: skew(Lax) >> skew(LaxP2P) >> skew(LaxBarrier); LaxP2P
bounded around its slack; LaxBarrier bounded around its quantum.
"""

from __future__ import annotations

import pytest

from repro.analysis.figures import render_skew_trace
from repro.sim.simulator import Simulator
from repro.workloads.base import get_workload

from conftest import paper_config, save_artifact

MODELS = ["lax", "lax_p2p", "lax_barrier"]
NTHREADS = 32
SCALE = 2.0
BARRIER_INTERVAL = 1000
P2P_SLACK = 2_500
P2P_INTERVAL = 1_000


def run_trace(model: str):
    config = paper_config(num_tiles=NTHREADS)
    config.sync.model = model
    config.sync.barrier_interval = BARRIER_INTERVAL
    config.sync.p2p_slack = P2P_SLACK
    config.sync.p2p_interval = P2P_INTERVAL
    config.trace_clock_skew = True
    config.skew_sample_period = 16
    simulator = Simulator(config)
    program = get_workload("fmm").main(nthreads=NTHREADS, scale=SCALE)
    result = simulator.run(program)
    return result.skew_trace


def peak_skew(trace) -> float:
    return max(max(abs(hi), abs(lo)) for _, hi, lo in trace)


@pytest.mark.benchmark(group="fig7")
def test_fig7_clock_skew(benchmark):
    traces = {}

    def run_all():
        for model in MODELS:
            traces[model] = run_trace(model)

    benchmark.pedantic(run_all, rounds=1, iterations=1)

    sections = []
    for model in MODELS:
        sections.append(render_skew_trace(
            f"Figure 7 ({model}): clock skew during fmm",
            traces[model]))
    save_artifact("fig7_clock_skew", "\n\n".join(sections))

    peaks = {model: peak_skew(traces[model]) for model in MODELS}
    # Shape assertions (paper §4.3, Figure 7): skew ordering.
    assert peaks["lax"] > peaks["lax_p2p"] > peaks["lax_barrier"]
    # LaxBarrier skew is on the order of its quantum.
    assert peaks["lax_barrier"] < 10 * BARRIER_INTERVAL
    # LaxP2P bounds skew around its slack (allowing overshoot between
    # checks), far below free-running Lax.
    assert peaks["lax_p2p"] < 10 * P2P_SLACK
