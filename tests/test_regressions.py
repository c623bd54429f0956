"""Regression tests for bugs found while reproducing the paper.

Each test pins one failure mode discovered during development (see
DESIGN.md §5a); if a refactor reintroduces it, these fail long before
the benchmark shapes drift.
"""

import pytest

from repro.common.config import SimulationConfig
from repro.common.stats import StatGroup
from repro.sim.simulator import Simulator
from repro.sync.progress import ProgressEstimator
from repro.sync.queue_model import LaxQueueModel
from repro.workloads.base import get_workload
from tests.conftest import tiny_config


class TestQueueModelDivergence:
    """A run-ahead tile's timestamps must not poison queue delays."""

    def test_outlier_timestamp_does_not_charge_skew(self):
        progress = ProgressEstimator(32)
        queue = LaxQueueModel(progress, StatGroup("q"))
        for _ in range(31):
            queue.access(1_000, 10)
        # One tile a billion cycles ahead touches the queue...
        queue.access(1_000_000_000, 10)
        # ...and the next normal-time packet is NOT billed eons.
        delay = queue.access(1_200, 10)
        assert delay < 32 * 10 + 10 + 1

    def test_delay_bounded_by_backlog(self):
        progress = ProgressEstimator(8)
        queue = LaxQueueModel(progress, StatGroup("q"))
        for _ in range(1000):  # way past saturation
            total = queue.access(100, 50)
            assert total <= 8 * 50 + 50

    def test_cycle_counts_stay_sane_at_32_tiles(self):
        """The original failure: fft at 32 tiles produced CPI ~1000 via
        queue-delay feedback.  Pin a generous ceiling."""
        config = SimulationConfig(num_tiles=32)
        result = Simulator(config).run(
            get_workload("fft").main(nthreads=32, scale=0.25))
        per_thread_cycles = result.simulated_cycles
        per_thread_instr = result.total_instructions / 32
        assert per_thread_cycles / per_thread_instr < 200


class TestWakeClockStaleness:
    """Woken threads forward clocks eagerly (Figure 7 spike fix)."""

    def test_barrier_waiter_clock_fresh_after_release(self):
        def worker(ctx, index, barrier):
            yield from ctx.compute(100 if index else 50_000)
            yield from ctx.barrier(barrier, 2)

        def main(ctx):
            barrier = yield from ctx.calloc(8, align=64)
            thread = yield from ctx.spawn(worker, 0, barrier)
            yield from worker(ctx, 1, barrier)
            yield from ctx.join(thread)

        simulator = Simulator(tiny_config(2))
        simulator.run(main)
        clocks = [i.core.cycles
                  for i in simulator.interpreters.values()]
        # Both ended within a whisker of each other, not 50k apart.
        assert max(clocks) - min(clocks) < 10_000


class TestSpawnSerialization:
    """Thread spawn must not serialize large fleets (Figure 5 fix)."""

    def test_spawn_cost_small_relative_to_work(self):
        def worker(ctx, index):
            yield from ctx.compute(5_000)

        def main(ctx):
            threads = yield from ctx.spawn_workers(worker, 63)
            yield from ctx.join_all(threads)

        config = SimulationConfig(num_tiles=64)
        result = Simulator(config).run(main)
        # 63 spawns at the configured cost must stay a modest fraction
        # of total host time.
        spawn_cost = 63 * config.host.thread_spawn_cost
        assert spawn_cost < 0.5 * result.wall_clock_seconds


class TestSystemTrafficExemption:
    """Control-plane messages carry no blocking latency."""

    def test_syscall_storm_does_not_stall_host(self):
        def main(ctx):
            for _ in range(200):
                yield from ctx.syscall("brk", 0)
            return True

        config = tiny_config(2)
        config.host.num_machines = 2
        result = Simulator(config).run(main)
        busy = sum(result.core_busy_seconds.values())
        # Wall is busy + startup, not inflated by per-syscall wire waits.
        startup = config.host.process_startup_cost * 2
        assert result.wall_clock_seconds == pytest.approx(
            busy + startup, rel=0.3)


class TestComputeChunking:
    """One huge Compute op must not swallow a whole quantum budget
    (skew sampling and barrier epochs depend on op granularity)."""

    def test_big_compute_spans_many_quanta(self):
        def main(ctx):
            yield from ctx.compute(100_000)

        config = tiny_config(1)
        config.host.quantum_instructions = 500
        simulator = Simulator(config)
        simulator.run(main)
        thread = next(iter(simulator.scheduler.threads.values()))
        assert thread.quanta > 50
