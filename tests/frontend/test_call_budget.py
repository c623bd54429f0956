"""The hit path's depth, as a count of Python frames per op.

A one-thread program of N L1-hit loads, stores or ``compute(10)`` runs
under ``sys.setprofile`` and every Python ``call`` event is counted
(entering a function, resuming a generator).  The count at N = 3072
less the count at N = 1024 is what 2048 ops cost, and it is exact: 2048
times the frames of one op, plus one frame per refill of the host cost
model's jitter block — a charge in 256, so eight per charge an op makes
— and the same on every run.  One op was 57 / 54 / 33 frames before the
host charges were fused and the per-op helper hops removed (DESIGN.md
§3 "One frame per charge"), 17 / 16 / 12 before a run of hits retired
in one core-model call and host charges became logged codes (§3 "A run
of hits retires in one call"), and is 5 / 5 / 5 now: the workload's own
generator hops and op record (four) and the controller's hit probe.
The core model's call and the pricing of the codes happen once per
run, not per op.
"""

from __future__ import annotations

import gc
import sys

import pytest

from repro.common.config import SimulationConfig
from repro.distrib.wire import make_program_ref
from repro.host.costmodel import BLOCK
from repro.serve.store import canonical_result_bytes
from repro.sim.runner import create_simulator

#: Frames one L1-hit op may cost (57 / 54 / 33 before the charges were
#: fused, 17 / 16 / 12 before runs of hits retired in one call).
BUDGET = {"load": 5, "store": 5, "compute": 5}
#: Host charges one op makes: the fetch's and the access's memory-model
#: charges, and the instruction's.
CHARGES = {"load": 3, "store": 3, "compute": 2}


def _loads(ctx, count):
    base = yield from ctx.calloc(64, 64)
    for _ in range(count):
        yield from ctx.load_u64(base)


def _stores(ctx, count):
    base = yield from ctx.calloc(64, 64)
    for _ in range(count):
        yield from ctx.store_u64(base, 7)


def _computes(ctx, count):
    for _ in range(count):
        yield from ctx.compute(10)


PROGRAMS = {"load": _loads, "store": _stores, "compute": _computes}


def _config(backend: str = "inproc") -> SimulationConfig:
    cfg = SimulationConfig(num_tiles=2, seed=3)
    cfg.host.num_machines = 1
    cfg.host.cores_per_machine = 2
    # One quantum holds the whole program: no turn lands in the difference.
    cfg.host.quantum_instructions = 10 ** 6
    cfg.distrib.backend = backend
    cfg.validate()
    return cfg


def _calls(kind: str, count: int) -> int:
    """Python ``call`` events of one whole inproc run."""
    sim = create_simulator(_config())
    calls = 0

    def on_event(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    # No collection inside the count: a ``gc.callbacks`` hook (hypothesis
    # installs one) is a Python frame that comes and goes.
    collecting = gc.isenabled()
    gc.disable()
    sys.setprofile(on_event)
    try:
        sim.run(PROGRAMS[kind], (count,))
    finally:
        sys.setprofile(None)
        if collecting:
            gc.enable()
    return calls


@pytest.mark.parametrize("kind", sorted(PROGRAMS))
def test_frames_per_hit_op_stay_in_budget(kind):
    # A first run takes what a process does once (a class's slot names
    # are computed and cached on first pickling) out of the counts.
    _calls(kind, 16)
    small, large = _calls(kind, 1024), _calls(kind, 3072)
    assert (small, large) == (_calls(kind, 1024), _calls(kind, 3072))
    per_op, refills = divmod(large - small, 2048)
    assert refills == CHARGES[kind] * 2048 // BLOCK, (small, large)
    assert 0 < per_op <= BUDGET[kind], (kind, per_op)


@pytest.mark.parametrize("kind", sorted(PROGRAMS))
def test_the_counted_program_is_backend_invariant(kind):
    results = []
    for backend in ("inproc", "mp"):
        sim = create_simulator(_config(backend))
        program = make_program_ref(PROGRAMS[kind])
        results.append(canonical_result_bytes(sim.run(program, (500,))))
    assert results[0] == results[1]
