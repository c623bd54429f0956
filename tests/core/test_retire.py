"""A run retired in one call is the same ops retired one at a time.

``retire(run)`` is the core models' one timing path: the interpreter
hands it a quantum's run of L1-hit computes, loads and stores, and
``execute`` / ``execute_memory`` are it with a run of one.  The
reference below is the per-op rule each model followed before runs
existed, spelled out here against the load/store unit's own per-access
``issue`` and ``forwards``; runs are drawn over a few addresses and
one-to-three-entry queues and windows, so stores stall on a full
buffer, loads forward from it and the OoO window fills.
"""

from __future__ import annotations

import heapq

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.config import CoreConfig, SimulationConfig
from repro.common.stats import StatGroup
from repro.core.instruction import Instruction
from repro.core.isa import DEFAULT_COST, InstructionClass
from repro.core.ooo_model import OutOfOrderCoreModel
from repro.core.perf_model import (
    STORE_FORWARD_LATENCY,
    CorePerfModel,
    UnitCostCoreModel,
)
from repro.sim.runner import create_simulator

LOAD, STORE = InstructionClass.LOAD, InstructionClass.STORE
_COMPUTE = [InstructionClass.GENERIC, InstructionClass.IMUL,
            InstructionClass.FPU_DIV]

_ENTRIES = st.one_of(
    st.tuples(st.sampled_from([LOAD, STORE]),
              st.sampled_from([0x1000, 0x1008, 0x2000]),
              st.integers(0, 300)),
    st.tuples(st.sampled_from(_COMPUTE), st.integers(0, 40), st.just(0)),
)


def _in_order_op(core, klass, value, latency):
    """``CorePerfModel``'s rule for one op before runs."""
    costs = core._costs
    if klass is LOAD or klass is STORE:
        issue = costs.get(klass._value_, DEFAULT_COST)
        now = core.clock.cycles
        if klass is LOAD:
            if core.store_buffer.forwards(value):
                latency = min(latency, STORE_FORWARD_LATENCY)
            total = issue + latency + core.load_queue.issue(now, latency)
        else:
            total = issue + core.store_buffer.issue(now, value, latency)
        core.clock.advance(total)
        core._instructions.value += 1
        core._memory_stall.value += total - issue
    else:
        core.clock.advance(value * costs.get(klass._value_, DEFAULT_COST))
        core._instructions.value += value


def _ooo_op(core, klass, value, latency):
    """``OutOfOrderCoreModel``'s rule for one op before runs."""
    costs = core._costs
    if klass is LOAD or klass is STORE:
        core._dispatch(costs.get(klass._value_, DEFAULT_COST))
        core._reserve_slot()
        heapq.heappush(core._window, core.clock.cycles + latency)
        core._overlapped.value += latency
        core._instructions.value += 1
    else:
        core._dispatch(value * costs.get(klass._value_, DEFAULT_COST))
        core._instructions.value += value


def _unit_op(core, klass, value, latency):
    count = 1 if klass is LOAD or klass is STORE else value
    core.clock.advance(count)
    core._instructions.value += count


def _build(kind, depth):
    config = CoreConfig(
        model="out_of_order" if kind == "ooo" else "in_order",
        store_buffer_entries=depth, load_queue_entries=depth,
        rob_entries=depth, dispatch_width=1 + depth % 2)
    stats = StatGroup("core")
    timed = (OutOfOrderCoreModel if kind == "ooo" else CorePerfModel)(
        config, stats)
    return (UnitCostCoreModel(timed) if kind == "unit" else timed), stats


def _state(core, stats):
    timed = getattr(core, "_timed", core)
    if isinstance(timed, CorePerfModel):
        queues = (list(timed.store_buffer._inflight),
                  list(timed.load_queue._inflight))
    else:
        queues = (sorted(timed._window), timed._dispatch_backlog)
    return core.clock.cycles, stats.to_dict(), queues


_REFERENCE = {"in_order": _in_order_op, "ooo": _ooo_op, "unit": _unit_op}


@settings(max_examples=150, deadline=None)
@given(kind=st.sampled_from(sorted(_REFERENCE)), depth=st.integers(1, 3),
       run=st.lists(_ENTRIES, max_size=40),
       cuts=st.lists(st.integers(0, 40), max_size=4))
def test_a_run_retires_as_its_ops_one_by_one(kind, depth, run, cuts):
    """In one call, in a few calls cut anywhere, and as the ops' own
    ``execute`` / ``execute_memory`` calls: clock, every counter, the
    store buffer and load queue (or window) match the per-op rule."""
    reference, stats = _build(kind, depth)
    for entry in run:
        _REFERENCE[kind](reference, *entry)
    expected = _state(reference, stats)

    whole, stats = _build(kind, depth)
    assert whole.retire(run) == expected[0]
    assert _state(whole, stats) == expected

    pieces, stats = _build(kind, depth)
    bounds = [0, *sorted(cut for cut in cuts if cut < len(run)), len(run)]
    for start, end in zip(bounds, bounds[1:]):
        pieces.retire(run[start:end])
    assert _state(pieces, stats) == expected

    one_by_one, stats = _build(kind, depth)
    for klass, value, latency in run:
        if klass is LOAD or klass is STORE:
            one_by_one.execute_memory(klass, value, 8, latency)
        else:
            one_by_one.execute(Instruction(klass, value))
    assert _state(one_by_one, stats) == expected


def test_the_drawn_runs_stall_and_forward():
    """The strategy reaches what it is there for: a full store buffer
    and a forwarded load (the in-order core's load queue never fills —
    each load's clock advance covers its own latency)."""
    core, stats = _build("in_order", 1)
    core.retire([(STORE, 0x1000, 100), (STORE, 0x2000, 100),
                 (LOAD, 0x2000, 300)])
    flat = stats.to_dict()
    assert flat["core.lsu.store_buffer_stall_cycles"] == 99
    # Forwarded: the load paid one cycle, not 300.
    assert core.clock.cycles == 1 + 99 + 1 + 1 + STORE_FORWARD_LATENCY


@pytest.mark.parametrize("model", ["in_order", "out_of_order"])
def test_a_quantum_of_hits_retires_in_one_call(monkeypatch, model):
    """N L1-hit loads are one ``retire`` call of N entries, not N calls,
    and none of them reaches ``execute_memory``."""
    core_class = {"in_order": CorePerfModel,
                  "out_of_order": OutOfOrderCoreModel}[model]
    runs, memory_calls = [], []
    retire, execute_memory = core_class.retire, core_class.execute_memory

    def counted_retire(self, run):
        runs.append(len(run))
        return retire(self, run)

    def counted_memory(self, *args):
        memory_calls.append(args)
        return execute_memory(self, *args)

    monkeypatch.setattr(core_class, "retire", counted_retire)
    monkeypatch.setattr(core_class, "execute_memory", counted_memory)
    count = 500

    def loads(ctx):
        base = yield from ctx.calloc(64, 64)
        for _ in range(count):
            yield from ctx.load_u64(base)

    config = SimulationConfig(num_tiles=2, seed=5)
    config.core.model = model
    config.memory.l1i.enabled = False  # every load's only access hits
    config.host.quantum_instructions = 10 ** 6
    config.validate()
    create_simulator(config).run(loads)
    assert runs.count(count) == 1
    # Everything else was a run of one: the calloc's miss and the like.
    assert sum(runs) == count + len(runs) - 1
    assert len(memory_calls) == len(runs) - 1
