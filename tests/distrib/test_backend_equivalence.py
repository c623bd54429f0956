"""The mp backend must reproduce the in-process backend exactly.

This is the acceptance bar of the distributed backend: same seed, same
configuration => byte-identical headline metrics (simulated cycles,
message counts, every counter) whichever backend ran the simulation.
"""

from __future__ import annotations

import functools
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ckpt.recovery import load_checkpoint
from repro.common.config import SimulationConfig
from repro.distrib.coordinator import DistribSimulator
from repro.distrib.wire import WorkloadRef
from repro.serve.store import canonical_result_bytes
from repro.sim.runner import create_simulator, run_simulation
from repro.sim.simulator import Simulator
from repro.telemetry.events import EventCategory


def _config(sync: str, network: str) -> SimulationConfig:
    cfg = SimulationConfig(num_tiles=4, seed=11)
    cfg.host.num_machines = 2
    cfg.host.cores_per_machine = 2
    cfg.host.quantum_instructions = 200
    cfg.sync.model = sync
    cfg.network.memory_model = network
    cfg.validate()
    return cfg


REF = WorkloadRef("matrix_multiply", nthreads=4, scale=0.05)


@pytest.mark.parametrize("network", ["magic", "mesh"])
@pytest.mark.parametrize("sync", ["lax", "lax_barrier"])
def test_backends_produce_identical_metrics(sync, network):
    cfg = _config(sync, network)
    inproc = Simulator(cfg).run(REF)

    mp_cfg = _config(sync, network)
    mp_cfg.distrib.backend = "mp"
    sim = create_simulator(mp_cfg)
    assert isinstance(sim, DistribSimulator)
    assert sim.layout.num_processes == 2  # a real multi-worker split
    mp = sim.run(REF)

    assert mp.simulated_cycles == inproc.simulated_cycles
    assert mp.thread_cycles == inproc.thread_cycles
    assert mp.thread_start_cycles == inproc.thread_start_cycles
    assert mp.thread_instructions == inproc.thread_instructions
    assert mp.counters == inproc.counters  # every counter, every subsystem
    assert mp.wall_clock_seconds == inproc.wall_clock_seconds
    assert mp.core_busy_seconds == inproc.core_busy_seconds
    assert mp.main_result == inproc.main_result


def test_mp_backend_survives_coherence_audit():
    """The coordinator-side memory system stays consistent under mp."""
    cfg = _config("lax", "mesh")
    cfg.distrib.backend = "mp"
    sim = create_simulator(cfg)
    sim.run(REF)
    sim.engine.check_coherence_invariants()


def test_run_simulation_selects_backend():
    cfg = _config("lax", "magic")
    assert isinstance(create_simulator(cfg), Simulator)
    assert not isinstance(create_simulator(cfg), DistribSimulator)
    result = run_simulation(cfg, REF)
    cfg.distrib.backend = "mp"
    assert run_simulation(cfg, REF).simulated_cycles \
        == result.simulated_cycles


# -- one searched property: the wire's deferrals reorder nothing ------------
#
# Casts ride the next call and the instruction fetch rides the memory
# access it precedes (wire v7); neither may change *when* shared state
# is touched.  Rather than enumerate feature pairs, draw the model
# choices, the carrier, the observers and one membership / recovery
# perturbation together, and require the mp run to equal the plain
# in-process run byte for byte — result and event stream.

def _drawn_config(l1i: bool, network: str, sync: str,
                  telemetry: bool) -> SimulationConfig:
    cfg = SimulationConfig(num_tiles=4, seed=11)
    cfg.host.num_machines = 2
    cfg.host.cores_per_machine = 2
    cfg.host.quantum_instructions = 200
    cfg.memory.l1i.enabled = l1i
    cfg.network.memory_model = network
    cfg.sync.model = sync
    if telemetry:
        cfg.telemetry.enabled = True
        # Far below one quantum's worth of events: every quantum
        # pushes a TELEMETRY frame (and the casts ahead of it).
        cfg.telemetry.batch_events = 2
    return cfg


def _event_stream(sim) -> list:
    """What the run's observers saw, in an order both backends share.

    Emission bookkeeping (``origin``, ``seq``) legitimately differs —
    workers emit what the in-process interpreters emit — so events are
    ordered by simulated time, then content.  WORKER events describe
    mp-only machinery.
    """
    return sorted(
        e.content_key() for e in sim.telemetry.ordered_events()
        if not (e.category & EventCategory.WORKER))


def _coordinator_order(sim) -> list:
    """Shared-state events in the order the coordinator emitted them.

    Every category the coordinator alone emits on the mp backend
    (memory, network, scheduler …) is an in-order record of shared-
    state touches; it must equal the in-process emission order, which
    is exactly what a reordered cast or fetch would break.
    """
    shared = ~(EventCategory.WORKER | EventCategory.SYNC
               | EventCategory.NET | EventCategory.OBS)
    events = [e for e in sim.telemetry.events
              if e.origin == 0 and e.category & shared]
    return [e.content_key() for e in sorted(events, key=lambda e: e.seq)]


@functools.lru_cache(maxsize=None)
def _reference(l1i: bool, network: str, sync: str, telemetry: bool):
    """The plain in-process run of one drawn model configuration."""
    cfg = _drawn_config(l1i, network, sync, telemetry)
    cfg.validate()
    sim = Simulator(cfg)
    result = canonical_result_bytes(sim.run(REF))
    if not telemetry:
        return result, None, None
    return result, _event_stream(sim), _coordinator_order(sim)


@settings(max_examples=30, deadline=None)
@given(
    l1i=st.booleans(),
    network=st.sampled_from(["magic", "mesh"]),
    sync=st.sampled_from(["lax", "lax_barrier", "lax_p2p"]),
    transport=st.sampled_from(["pipe", "tcp"]),
    telemetry=st.booleans(),
    perturb=st.sampled_from(["none", "drain", "ckpt"]),
)
def test_mp_equals_inproc_under_any_drawn_combination(
        l1i, network, sync, transport, telemetry, perturb):
    expected, expected_stream, expected_order = _reference(
        l1i, network, sync, telemetry)

    cfg = _drawn_config(l1i, network, sync, telemetry)
    cfg.distrib.backend = "mp"
    cfg.distrib.transport = transport
    with tempfile.TemporaryDirectory() as scratch:
        if perturb == "drain":
            cfg.distrib.drain_turn = 5
        elif perturb == "ckpt":
            cfg.ckpt.dir = scratch
            cfg.ckpt.every = 20
        cfg.validate()
        sim = create_simulator(cfg)
        assert canonical_result_bytes(sim.run(REF)) == expected
        if perturb == "ckpt":
            restored, manifest = load_checkpoint(scratch)
            assert manifest["turn"] > 0
            assert canonical_result_bytes(restored.resume_run()) \
                == expected
    if telemetry and perturb == "none":
        # Migrated and restored shards run unobserved from then on, so
        # only an unperturbed run has the whole stream to compare.
        assert _event_stream(sim) == expected_stream
        assert _coordinator_order(sim) == expected_order
