"""Fast-forward is the one handler table against a unit-cost core model.

What the interpreter's functional twin used to promise in a comment —
"the identical functional work" — held as a property: for a drawn
program over every op kind, a run fast-forwarded to its end and a
detailed run retire the same instructions, return the same result and
leave the same bytes in target memory; and the fast-forwarded run is
byte-identical on both backends.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.config import SimulationConfig
from repro.common.stats import StatGroup
from repro.core.factory import create_core_model
from repro.core.instruction import Instruction
from repro.core.isa import InstructionClass
from repro.core.perf_model import UnitCostCoreModel
from repro.distrib.wire import make_program_ref
from repro.profile.instrument import _CORE
from repro.serve.store import canonical_result_bytes
from repro.sim.runner import create_simulator

LOCK, BARRIER, COUNTER, PRIVATE = 0, 64, 128, 192
REGION = PRIVATE + 64 * 4


def _steps(ctx, index, threads, base, steps, contend):
    """One thread's walk over the drawn steps; every thread walks the
    same list, so barriers and ring messages pair up.  Nothing read
    into ``total`` depends on how the threads interleave."""
    me = ctx.thread_id
    after, before = (int(me) + 1) % threads, (int(me) - 1) % threads
    private = base + PRIVATE + 64 * index
    total = 0
    for number, (kind, value) in enumerate(steps):
        if kind == "compute":
            yield from ctx.compute(value + 1)
        elif kind == "branch":
            yield from ctx.branch(bool(value % 2), pc=0x400 + index)
        elif kind == "store":
            yield from ctx.store_u64(private + 8 * (value % 7),
                                     value + index)
        elif kind == "load":
            total += yield from ctx.load_u64(private + 8 * (value % 7))
        elif kind == "heap":
            block = yield from ctx.malloc(8 + value)
            yield from ctx.store_u64(block, value)
            total += yield from ctx.load_u64(block)
            yield from ctx.free(block)
        elif kind == "locked_add":
            # Uncontended unless drawn otherwise: a token walks the
            # threads, so the lock word still changes tile every time —
            # and comes back to the first, or it would run ahead into
            # the next ``locked_add`` and contend with this one's tail.
            walk = not contend and threads > 1
            if index and walk:
                yield from ctx.recv_u64(tag=1000 + number)
            yield from ctx.lock(base + LOCK)
            counter = yield from ctx.load_u64(base + COUNTER)
            yield from ctx.store_u64(base + COUNTER,
                                     counter + value + index)
            yield from ctx.unlock(base + LOCK)
            if walk:
                yield from ctx.send_u64(after, 1, tag=1000 + number)
                if not index:
                    yield from ctx.recv_u64(tag=1000 + number)
        elif kind == "barrier":
            yield from ctx.barrier(base + BARRIER, threads)
        elif kind == "ring":
            yield from ctx.send_u64(after, value + index, tag=number)
            sender, got = yield from ctx.recv_u64(before, tag=number)
            total += got + int(sender)
        elif kind == "syscall":
            total += yield from ctx.syscall("write", 1,
                                            b"x" * (value % 5 + 1))
    yield from ctx.store_u64(private + 56, total)


def _main(ctx, threads, steps, contend):
    base = yield from ctx.calloc(REGION, 64)
    spawned = []
    for index in range(1, threads):
        spawned.append((yield from ctx.spawn(
            _steps, index, threads, base, steps, contend)))
    yield from _steps(ctx, 0, threads, base, steps, contend)
    yield from ctx.join_all(spawned)
    memory = yield from ctx.load(base, REGION)
    yield from ctx.free(base)
    return bytes(memory)


def _run(backend, ff, args):
    cfg = SimulationConfig(num_tiles=4, seed=5)
    cfg.host.num_machines = 2
    cfg.host.cores_per_machine = 2
    cfg.host.quantum_instructions = 50
    cfg.distrib.backend = backend
    if ff:
        cfg.sample.ff_until = 10 ** 9  # past any last cycle
    cfg.validate()
    return create_simulator(cfg).run(make_program_ref(_main), args)


KINDS = ["compute", "branch", "store", "load", "heap", "locked_add",
         "barrier", "ring", "syscall"]
STEP = st.tuples(st.sampled_from(KINDS), st.integers(0, 40))


@settings(max_examples=25, deadline=None)
@given(threads=st.integers(1, 4), contend=st.booleans(),
       steps=st.lists(STEP, min_size=1, max_size=14).map(tuple))
def test_fast_forward_does_the_work_of_a_detailed_run(
        threads, contend, steps):
    args = (threads, steps, contend)
    detailed = _run("inproc", False, args)
    forwarded = _run("inproc", True, args)
    assert forwarded.sample["mode_switches"] == []  # functional to the end
    assert forwarded.main_result == detailed.main_result
    if not contend:
        # A lock found taken re-runs its read-modify-write when it is
        # woken, and who finds it taken depends on timing.
        assert forwarded.total_instructions == detailed.total_instructions
        assert forwarded.thread_instructions \
            == detailed.thread_instructions
    assert canonical_result_bytes(_run("mp", True, args)) \
        == canonical_result_bytes(forwarded)


def test_the_drawn_programs_reach_every_handler(monkeypatch):
    """One program with every step kind executes all fourteen op types
    (with spawn and join around them), so the property above has no
    handler it cannot draw.  An L1-hit load, store or compute reaches
    no handler: it is seen in the run the core model retires."""
    from repro.frontend import ops
    from repro.frontend.interpreter import ThreadInterpreter
    table = ThreadInterpreter._HANDLERS
    seen = set()

    def spied(op_type):
        def handler(self, op, core):
            seen.add(op_type)
            return table[op_type](self, op, core)
        return handler

    retire = UnitCostCoreModel.retire
    retired = {InstructionClass.LOAD: ops.Load,
               InstructionClass.STORE: ops.Store}

    def spied_retire(self, run):
        seen.update(retired.get(entry[0], ops.Compute) for entry in run)
        return retire(self, run)

    monkeypatch.setattr(ThreadInterpreter, "_HANDLERS",
                        {op_type: spied(op_type) for op_type in table})
    monkeypatch.setattr(UnitCostCoreModel, "retire", spied_retire)
    _run("inproc", True, (3, tuple((kind, 3) for kind in KINDS), False))
    assert seen == set(table) and len(seen) == 14


def test_unit_cost_model_consumes_what_the_timed_models_do():
    """The three models answer to one set of consumption methods — the
    ones the host profiler times — so a rename cannot fall through to
    an ``AttributeError`` that only ``--ff-until`` would reach."""
    assert _CORE == ("execute", "execute_branch", "execute_memory",
                     "execute_pseudo", "drain")
    config = SimulationConfig(num_tiles=2)
    for name in ("in_order", "out_of_order"):
        config.core.model = name
        timed = create_core_model(config.core, StatGroup("core"))
        unit = UnitCostCoreModel(timed)
        for method in _CORE:
            assert callable(getattr(timed, method)), (name, method)
            assert callable(getattr(unit, method)), method
        unit.execute(Instruction(count=7))  # on the timed model's books
        assert timed.instruction_count == 7
        assert unit.cycles == timed.cycles == 7
