"""Host cost model: what each event is charged, and the jitter block."""

import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.config import HostConfig, SyncConfig
from repro.common.errors import SimulationError
from repro.common.ids import TileId
from repro.common.stats import StatGroup
from repro.host.cluster import ClusterLayout, Locality
from repro.host.costmodel import BLOCK, HostCostModel
from repro.host.scheduler import (
    QuantumResult,
    QuantumStatus,
    Scheduler,
    ThreadTask,
)
from repro.sync.lax import LaxModel


def model(jitter=0.0, rng=None, **kwargs):
    """A cost model under a scheduler with no quantum open, so every
    charge lands on core 0 and :func:`charged` can read it back."""
    host = HostConfig(jitter=jitter, **kwargs)
    m = HostCostModel(host, rng=rng)
    Scheduler(ClusterLayout(2, host), m,
              LaxModel(SyncConfig(), StatGroup("sync")), StatGroup("sched"))
    return m


def charged(m, charger, *args):
    """(wall, busy) host seconds ``charger(*args)`` put on core 0 —
    exactly: the accumulators are zeroed first."""
    scheduler = m.scheduler
    scheduler.core_time[0] = scheduler.core_busy[0] = 0.0
    getattr(m, charger)(*args)
    return scheduler.core_time[0], scheduler.core_busy[0]


def cpu(m, charger, *args):
    return charged(m, charger, *args)[1]


def blocked(m, locality, size):
    """The wire latency a blocking message holds its thread for."""
    wall, busy = charged(m, "charge_message", locality, size, True)
    return wall - busy


class TestInstructionCosts:
    def test_instrumentation_overhead_applied(self):
        m = model()
        assert cpu(m, "charge_instructions", 1000) == pytest.approx(
            m.native_instructions(1000)
            * HostConfig().instrumentation_overhead)

    def test_costs_scale_linearly(self):
        m = model()
        assert cpu(m, "charge_instructions", 200) == pytest.approx(
            2 * cpu(m, "charge_instructions", 100))

    def test_native_cost_matches_host_clock(self):
        m = model()
        assert m.native_instructions(int(3.16e9)) == pytest.approx(1.0)


class TestMessageCosts:
    def test_locality_ordering(self):
        """intra-process < inter-process < inter-machine (GbE)."""
        m = model()
        intra, inter, cross = (
            cpu(m, "charge_message", locality, 64, False)
            for locality in (Locality.SAME_PROCESS, Locality.SAME_MACHINE,
                             Locality.CROSS_MACHINE))
        assert intra < inter < cross
        assert m.message(Locality.CROSS_MACHINE) == pytest.approx(cross)

    def test_cross_machine_latency_pays_per_byte(self):
        m = model()
        assert blocked(m, Locality.CROSS_MACHINE, 8192) > \
            blocked(m, Locality.CROSS_MACHINE, 8)

    def test_cpu_cost_size_independent(self):
        m = model()
        assert cpu(m, "charge_message", Locality.CROSS_MACHINE, 8, True) \
            == pytest.approx(cpu(m, "charge_message",
                                 Locality.CROSS_MACHINE, 8192, True))

    def test_latency_ordering(self):
        """Local queues have no wire latency; TCP does."""
        m = model()
        assert blocked(m, Locality.SAME_PROCESS, 64) == 0.0
        assert blocked(m, Locality.SAME_MACHINE, 64) < \
            blocked(m, Locality.CROSS_MACHINE, 64)

    def test_a_message_that_does_not_block_has_no_latency(self):
        m = model()
        wall, busy = charged(m, "charge_message", Locality.CROSS_MACHINE,
                             64, False)
        assert wall == busy > 0.0


class TestJitter:
    def test_zero_jitter_deterministic(self):
        m = model(jitter=0.0, rng=random.Random(1))
        assert cpu(m, "charge_instructions", 100) == \
            cpu(m, "charge_instructions", 100)

    def test_jitter_varies_costs(self):
        m = model(jitter=0.05, rng=random.Random(1))
        samples = {cpu(m, "charge_instructions", 100) for _ in range(20)}
        assert len(samples) > 1

    def test_jitter_centred_on_nominal(self):
        m = model(jitter=0.02, rng=random.Random(7))
        nominal = cpu(model(jitter=0.0), "charge_instructions", 100)
        mean = sum(cpu(m, "charge_instructions", 100)
                   for _ in range(500)) / 500
        assert mean == pytest.approx(nominal, rel=0.01)

    def test_no_rng_means_no_jitter(self):
        m = model(jitter=0.1, rng=None)
        assert cpu(m, "charge_instructions", 100) == \
            cpu(m, "charge_instructions", 100)


class TestStartup:
    def test_startup_sequential_in_processes(self):
        m = model()
        assert m.process_startup(10) == pytest.approx(
            10 * HostConfig().process_startup_cost)


# -- the identity the block rests on ----------------------------------------
#
# The model draws its deviates 256 at a time; the run's bytes stay what
# they were only if the n-th event is still charged ``cost * (1.0 +
# rng.gauss(0.0, sigma))`` of the n-th draw.  The reference below is
# that, one ``gauss`` per event, spelled here and nowhere in src/.

_LOCALITIES = list(Locality)
_EVENTS = st.one_of(
    st.tuples(st.just("instructions"), st.integers(1, 4000)),
    st.tuples(st.just("trap")),
    st.tuples(st.just("memory_access")),
    st.tuples(st.just("message"), st.sampled_from(_LOCALITIES),
              st.integers(1, 9000), st.booleans()),
    st.tuples(st.just("sync_message"), st.sampled_from(_LOCALITIES)),
)


def _reference(host, rng, event):
    """(core seconds, blocking seconds) by the per-event formula."""
    def jittered(cost):
        if rng is None or host.jitter == 0.0:
            return cost
        return cost * (1.0 + rng.gauss(0.0, host.jitter))

    cpu_cost = {Locality.SAME_PROCESS: host.intra_process_message_cost,
                Locality.SAME_MACHINE: host.inter_process_message_cost,
                Locality.CROSS_MACHINE: host.inter_machine_message_cost}
    latency = {Locality.SAME_PROCESS: host.intra_process_message_latency,
               Locality.SAME_MACHINE: host.inter_process_message_latency,
               Locality.CROSS_MACHINE: host.inter_machine_message_latency}
    kind = event[0]
    if kind == "instructions":
        return jittered(event[1] * (host.native_instruction_cost
                                    * host.instrumentation_overhead)), 0.0
    if kind == "trap":
        return jittered(host.model_trap_cost), 0.0
    if kind == "memory_access":
        return jittered(host.memory_model_cost), 0.0
    locality = event[1]
    seconds = jittered(cpu_cost[locality])
    if kind == "sync_message" or not event[3]:
        return seconds, 0.0
    wire = latency[locality]
    if locality is Locality.CROSS_MACHINE:
        wire += event[2] * host.inter_machine_byte_cost
    wire = jittered(wire)  # drawn even when there is no latency
    return seconds, wire if wire > 0.0 else 0.0


def _apply(m, event):
    """(core seconds, core + blocking seconds) charged for ``event``."""
    kind = event[0]
    if kind == "sync_message":
        seconds = m.message(event[1])
        return seconds, seconds
    charger = {"instructions": "charge_instructions", "trap": "charge_trap",
               "memory_access": "charge_memory_access",
               "message": "charge_message"}[kind]
    wall, busy = charged(m, charger, *event[1:])
    return busy, wall


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32), sigma=st.sampled_from(
    [0.0, 0.02, 0.05, 0.1]), events=st.lists(_EVENTS, max_size=700),
    cut=st.integers(0, 700))
def test_block_drawn_charges_equal_one_gauss_per_event(seed, sigma, events,
                                                       cut):
    host = HostConfig(jitter=sigma)
    reference = random.Random(seed)
    m = model(jitter=sigma, rng=random.Random(seed))
    for index, event in enumerate(events):
        if index == cut:
            # A snapshot taken mid-block continues the same sequence.
            m = pickle.loads(pickle.dumps(m))
        seconds, wire = _reference(host, reference, event)
        assert _apply(m, event) == (seconds, seconds + wire)  # to the bit


@pytest.mark.parametrize("sigma,rng", [(0.0, random.Random(5)), (0.1, None)])
def test_no_jitter_consumes_nothing_from_the_stream(sigma, rng):
    before = rng.getstate() if rng is not None else None
    m = model(jitter=sigma, rng=rng)
    for _ in range(3 * BLOCK):
        m.charge_memory_access()
    assert m.scheduler.core_busy[0] == pytest.approx(
        3 * BLOCK * HostConfig().memory_model_cost)
    if rng is not None:
        assert rng.getstate() == before


def test_a_block_is_drawn_whole_and_spent_in_draw_order():
    rng, reference = random.Random(11), random.Random(11)
    m = model(jitter=0.02, rng=rng)
    m.charge_trap()
    assert len(m._factors) == BLOCK - 1
    drawn = [1.0 + reference.gauss(0.0, 0.02) for _ in range(BLOCK)]
    assert m._factors == drawn[:0:-1]
    assert rng.getstate() == reference.getstate()


class _ChargingTask(ThreadTask):
    """One quantum that makes a charge from inside it."""

    tile = TileId(1)
    cycles = 0

    def __init__(self, charge):
        self._charge = charge

    def run(self, budget_instructions, cycle_limit=None):
        self._charge()
        return QuantumResult(QuantumStatus.DONE, 1)


def test_a_charge_inside_a_quantum_lands_on_the_running_core():
    m = model()
    scheduler = m.scheduler
    scheduler.add_thread(_ChargingTask(m.charge_memory_access))
    scheduler.run()
    core = int(scheduler.layout.core_of_tile(TileId(1)))
    assert core != 0
    assert scheduler.core_busy[core] == HostConfig().memory_model_cost
    assert scheduler.core_busy[0] == 0.0


def test_a_charge_outside_a_quantum_lands_on_core_zero():
    m = model()
    m.charge_trap()
    assert m.scheduler.core_busy[0] == HostConfig().model_trap_cost
    assert sum(m.scheduler.core_busy[1:]) == 0.0


@pytest.mark.parametrize("inside", [False, True])
def test_a_negative_cost_still_raises(inside):
    m = model()

    def charge():
        m.charge_instructions(-1)

    with pytest.raises(SimulationError, match="negative host time"):
        if inside:
            m.scheduler.add_thread(_ChargingTask(charge))
            m.scheduler.run()
        else:
            charge()


def test_nothing_is_charged_or_drawn_while_fast_forwarding():
    rng = random.Random(3)
    before = rng.getstate()
    m = model(jitter=0.05, rng=rng)
    m.scheduler.functional = True
    m.charge_instructions(10)
    m.charge_trap()
    m.charge_memory_access()
    m.charge_message(Locality.CROSS_MACHINE, 64, True)
    assert not any(m.scheduler.core_time)
    assert rng.getstate() == before


# -- event codes: an mp worker's charges, priced in one loop -----------------


def _charge_each(m, codes):
    """The per-event calls ``codes`` stand for, one by one."""
    for code in codes:
        if code == 0:
            m.charge_memory_access()
        elif code == 1:
            m.charge_trap()
        else:
            m.charge_instructions(code - 2)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32),
       sigma=st.sampled_from([0.0, 0.02, 0.1]),
       spent=st.integers(0, BLOCK - 1),
       codes=st.lists(st.one_of(st.just(0), st.just(1),
                                st.integers(2, 4002)),
                      min_size=BLOCK + 1, max_size=3 * BLOCK),
       where=st.sampled_from(["quantum", "outside", "fast-forward"]))
def test_charge_events_equals_the_per_event_charges(seed, sigma, spent,
                                                    codes, where):
    """Across at least two jitter blocks, from any point in the first:
    the factors left, the stream, the open quantum's sum and every
    core's totals are bit for bit those of one call per event."""
    observed = []
    for charge in (_charge_each, HostCostModel.charge_events):
        rng = random.Random(seed)
        m = model(jitter=sigma, rng=rng)
        for _ in range(spent):
            m.charge_trap()
        scheduler = m.scheduler
        scheduler.functional = where == "fast-forward"
        sums = []

        def run(m=m, charge=charge, sums=sums, scheduler=scheduler):
            charge(m, codes)
            sums.append(scheduler._quantum_charge)

        if where == "quantum":
            scheduler.add_thread(_ChargingTask(run))
            scheduler.run()
        else:
            run()
        observed.append((sums, list(m._factors), rng.getstate(),
                         list(scheduler.core_time),
                         list(scheduler.core_busy)))
    assert observed[0] == observed[1]
    if where == "fast-forward":
        assert len(observed[0][1]) == (BLOCK - spent) % BLOCK
