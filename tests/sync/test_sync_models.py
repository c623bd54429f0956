"""Synchronization models: lax, LaxBarrier, LaxP2P (paper §3.6)."""

import random


from repro.common.config import HostConfig, SyncConfig
from repro.common.ids import TileId
from repro.common.stats import StatGroup
from repro.host.cluster import ClusterLayout
from repro.host.costmodel import HostCostModel
from repro.host.scheduler import (
    QuantumResult,
    QuantumStatus,
    Scheduler,
    ThreadTask,
)
from repro.sync.barrier import LaxBarrierModel
from repro.sync.lax import LaxModel
from repro.sync.model import create_sync_model
from repro.sync.p2p import LaxP2PModel


class ClockedTask(ThreadTask):
    """Advances its clock by a fixed rate per quantum until a target."""

    def __init__(self, tile, cycles_per_quantum, target_cycles,
                 cost=1.0, scheduler_ref=None):
        self.tile = TileId(tile)
        self.rate = cycles_per_quantum
        self.target = target_cycles
        self.cost = cost
        self._cycles = 0
        self._scheduler_ref = scheduler_ref

    def run(self, budget_instructions, cycle_limit=None):
        if self._scheduler_ref:
            self._scheduler_ref[0].charge(self.cost)
        step = self.rate
        if cycle_limit is not None:
            step = min(step, max(cycle_limit - self._cycles, 0))
        self._cycles += step
        if self._cycles >= self.target:
            return QuantumResult(QuantumStatus.DONE, step)
        return QuantumResult(QuantumStatus.RAN, step)

    @property
    def cycles(self):
        return self._cycles


def build(model_name, tiles=4, **sync_kwargs):
    sync_config = SyncConfig(model=model_name, **sync_kwargs)
    sync = create_sync_model(sync_config, StatGroup("sync"),
                             random.Random(0))
    host = HostConfig(jitter=0.0)
    layout = ClusterLayout(tiles, host)
    scheduler = Scheduler(layout, HostCostModel(host), sync,
                          StatGroup("sched"), quantum_instructions=100)
    return scheduler, sync


def max_skew_of_run(scheduler):
    """Run a two-thread scheduler; the widest clock skew any quantum
    left behind.  (A subclass, not an instance attribute: the
    scheduler is slotted.)"""
    skews = [0]

    class Spy(Scheduler):
        __slots__ = ()

        def _run_quantum(self, core, thread):
            super()._run_quantum(core, thread)
            clocks = self.thread_clocks()
            if len(clocks) == 2:
                skews.append(abs(clocks[0] - clocks[1]))

    scheduler.__class__ = Spy
    scheduler.run()
    return max(skews)


class TestFactory:
    def test_types(self):
        assert isinstance(build("lax")[1], LaxModel)
        assert isinstance(build("lax_barrier")[1], LaxBarrierModel)
        assert isinstance(build("lax_p2p")[1], LaxP2PModel)


class TestLax:
    def test_lax_imposes_no_cycle_limit(self):
        scheduler, sync = build("lax")
        ref = [scheduler]
        thread = scheduler.add_thread(
            ClockedTask(0, 100, 1000, scheduler_ref=ref))
        assert sync.cycle_limit(thread) is None

    def test_lax_lets_clocks_diverge(self):
        scheduler, _ = build("lax", tiles=2)
        ref = [scheduler]
        fast = ClockedTask(0, 1000, 10_000, scheduler_ref=ref)
        slow = ClockedTask(1, 10, 100, scheduler_ref=ref)
        scheduler.add_thread(fast)
        scheduler.add_thread(slow)
        scheduler.run()
        assert fast.cycles - slow.cycles > 5000


class TestLaxBarrier:
    def test_threads_stop_at_epoch(self):
        scheduler, sync = build("lax_barrier", barrier_interval=1000)
        ref = [scheduler]
        thread = scheduler.add_thread(
            ClockedTask(0, 100, 5000, scheduler_ref=ref))
        assert sync.cycle_limit(thread) == 1000

    def test_barrier_bounds_skew(self):
        scheduler, _ = build("lax_barrier", tiles=2,
                             barrier_interval=500)
        ref = [scheduler]
        fast = ClockedTask(0, 500, 4000, scheduler_ref=ref)
        slow = ClockedTask(1, 100, 4000, scheduler_ref=ref)
        scheduler.add_thread(fast)
        scheduler.add_thread(slow)

        assert max_skew_of_run(scheduler) <= 1000  # within two epochs

    def test_barriers_released_counted(self):
        scheduler, sync = build("lax_barrier", tiles=2,
                                barrier_interval=500)
        ref = [scheduler]
        scheduler.add_thread(ClockedTask(0, 250, 2000, scheduler_ref=ref))
        scheduler.add_thread(ClockedTask(1, 250, 2000, scheduler_ref=ref))
        scheduler.run()
        assert sync.stats.counter("barriers_released").value >= 3

    def test_done_thread_releases_barrier(self):
        """A finishing thread must not leave others stuck."""
        scheduler, _ = build("lax_barrier", tiles=2,
                             barrier_interval=1000)
        ref = [scheduler]
        short = ClockedTask(0, 200, 400, scheduler_ref=ref)   # ends early
        long_ = ClockedTask(1, 200, 3000, scheduler_ref=ref)
        scheduler.add_thread(short)
        scheduler.add_thread(long_)
        report = scheduler.run()  # must terminate
        assert long_.cycles >= 3000
        assert report.total_quanta > 0

    def test_barrier_adds_host_cost(self):
        with_barrier, _ = build("lax_barrier", tiles=2,
                                barrier_interval=100)
        without, _ = build("lax", tiles=2)
        for scheduler in (with_barrier, without):
            ref = [scheduler]
            scheduler.add_thread(ClockedTask(0, 100, 2000,
                                             scheduler_ref=ref))
            scheduler.add_thread(ClockedTask(1, 100, 2000,
                                             scheduler_ref=ref))
        slow = with_barrier.run().wall_clock_seconds
        fast = without.run().wall_clock_seconds
        assert slow > fast


class TestLaxP2P:
    def test_cycle_limit_is_next_check(self):
        scheduler, sync = build("lax_p2p", p2p_interval=1000)
        ref = [scheduler]
        thread = scheduler.add_thread(
            ClockedTask(0, 100, 10_000, scheduler_ref=ref))
        assert sync.cycle_limit(thread) == 1000

    def test_runahead_thread_put_to_sleep(self):
        scheduler, sync = build("lax_p2p", tiles=2, p2p_slack=1000,
                                p2p_interval=500)
        ref = [scheduler]
        fast = ClockedTask(0, 500, 50_000, scheduler_ref=ref)
        slow = ClockedTask(1, 10, 1000, scheduler_ref=ref)
        scheduler.add_thread(fast)
        scheduler.add_thread(slow)
        scheduler.run()
        assert sync.stats.counter("p2p_sleeps").value > 0

    def test_synchronized_threads_never_sleep(self):
        scheduler, sync = build("lax_p2p", tiles=2, p2p_slack=100_000,
                                p2p_interval=1000)
        ref = [scheduler]
        scheduler.add_thread(ClockedTask(0, 100, 5000, scheduler_ref=ref))
        scheduler.add_thread(ClockedTask(1, 100, 5000, scheduler_ref=ref))
        scheduler.run()
        assert sync.stats.counter("p2p_sleeps").value == 0

    def test_checks_happen_periodically(self):
        scheduler, sync = build("lax_p2p", tiles=2, p2p_interval=500)
        ref = [scheduler]
        scheduler.add_thread(ClockedTask(0, 100, 5000, scheduler_ref=ref))
        scheduler.add_thread(ClockedTask(1, 100, 5000, scheduler_ref=ref))
        scheduler.run()
        assert sync.stats.counter("p2p_checks").value >= 10

    def test_p2p_bounds_skew_better_than_lax(self):
        def max_skew_with(model_name, **kwargs):
            scheduler, _ = build(model_name, tiles=2, **kwargs)
            ref = [scheduler]
            fast = ClockedTask(0, 1000, 50_000, scheduler_ref=ref)
            slow = ClockedTask(1, 100, 50_000, scheduler_ref=ref)
            scheduler.add_thread(fast)
            scheduler.add_thread(slow)
            return max_skew_of_run(scheduler)

        lax_skew = max_skew_with("lax")
        p2p_skew = max_skew_with("lax_p2p", p2p_slack=2000,
                                 p2p_interval=500)
        assert p2p_skew < lax_skew
