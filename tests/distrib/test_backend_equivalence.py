"""The mp backend must reproduce the in-process backend exactly.

This is the acceptance bar of the distributed backend: same seed, same
configuration => byte-identical headline metrics (simulated cycles,
message counts, every counter) whichever backend ran the simulation.
"""

from __future__ import annotations

import functools
import pickle
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ckpt.recovery import load_checkpoint
from repro.common.config import SimulationConfig
from repro.distrib.coordinator import DistribSimulator
from repro.distrib.wire import WorkloadRef, make_program_ref
from repro.memory.cache import LineState
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
# Casts ride the next call, and the L1s live in the worker: hits touch
# nothing shared, store bytes are casts, and what an L2 does to an L1
# arrives with the next frame to that worker (wire v8).  None of it may
# change *when* shared state is touched.  Rather than enumerate feature
# pairs, draw the model choices, the program, the carrier, the observers
# and one membership / recovery perturbation together, and require the
# mp run to equal the plain in-process run byte for byte — result and
# event stream.

SHARE_ROUNDS = 120


def _sharer(ctx, index, base):
    """Four threads on tiles 0-3 of six (4 and 5 never run; 0 and 2
    share one worker, 1 and 3 the other) false-share the line at
    ``base``, straddle it into the next, and keep one private line
    each — read before written, so MESI grants it exclusively."""
    word = base + 8 * index
    private = base + 128 + 64 * index
    total = 0
    for i in range(SHARE_ROUNDS):
        value = yield from ctx.load_u64(word)
        yield from ctx.store_u64(word, value + index + 1)
        seen = yield from ctx.load(base + 60, 8)  # two lines
        if i % 4 == index:
            yield from ctx.store(base + 60, bytes([i % 251 + 1]) * 8)
        kept = yield from ctx.load_u64(private + 8 * (i % 8))
        yield from ctx.store_u64(private + 8 * (i % 8), kept + i)
        yield from ctx.compute(3)
        total += value + sum(seen) + kept
    return total


def _sharing_main(ctx):
    base = yield from ctx.malloc(512, 64)
    threads = yield from ctx.spawn_workers(_sharer, 3, base)
    total = yield from _sharer(ctx, 3, base)
    yield from ctx.join_all(threads)
    line = yield from ctx.load(base, 64)
    return total, bytes(line)


PROGRAMS = {"matmul": (4, REF), "sharing": (6, _sharing_main)}

#: ``(ff_until, period, detail, warmup)``.  Fast-forward keeps one
#: timeline whatever the models: both programs pass cycle 7000 at turn
#: 13-15 of 21-33, so the drain (turn 5) and the first checkpoint
#: (turn 8) fall while the run is functional, and each RUN_QUANTUM has
#: to name the mode for a worker that was never told of a switch.
SAMPLES = {"none": (0, 0, 0, 0), "ff": (7000, 0, 0, 0),
           "intervals": (7000, 1500, 400, 300)}


def _drawn_config(program: str, protocol: str, l1d: bool, classify: bool,
                  l1i: bool, network: str, sync: str, sample: str,
                  telemetry: bool) -> SimulationConfig:
    cfg = SimulationConfig(num_tiles=PROGRAMS[program][0], seed=11)
    cfg.host.num_machines = 2
    cfg.host.cores_per_machine = 2
    cfg.host.quantum_instructions = 200
    cfg.memory.protocol = protocol
    cfg.memory.l1d.enabled = l1d
    cfg.memory.classify_misses = classify
    cfg.memory.l1i.enabled = l1i
    cfg.network.memory_model = network
    cfg.sync.model = sync
    (cfg.sample.ff_until, cfg.sample.period, cfg.sample.detail,
     cfg.sample.warmup) = SAMPLES[sample]
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
    is exactly what a reordered cast, store or purge would break.
    """
    shared = ~(EventCategory.WORKER | EventCategory.SYNC
               | EventCategory.NET | EventCategory.OBS)
    events = [e for e in sim.telemetry.events
              if e.origin == 0 and e.category & shared]
    return [e.content_key() for e in sorted(events, key=lambda e: e.seq)]


@functools.lru_cache(maxsize=None)
def _reference(*drawn):
    """The plain in-process run of one drawn model configuration."""
    cfg = _drawn_config(*drawn)
    cfg.validate()
    sim = Simulator(cfg)
    result = sim.run(make_program_ref(PROGRAMS[drawn[0]][1]))
    if drawn[0] == "sharing":
        # Tiles 4 and 5 never ran; their counters exist all the same.
        assert result.counters["sim.mc5.loads"] == 0
        assert result.counters["sim.memory.upgrades"] \
            or drawn[1] == "mesi"
    if not drawn[-1]:
        return canonical_result_bytes(result), None, None
    return (canonical_result_bytes(result), _event_stream(sim),
            _coordinator_order(sim))


@settings(max_examples=40, deadline=None)
@given(
    program=st.sampled_from(sorted(PROGRAMS)),
    protocol=st.sampled_from(["msi", "mesi"]),
    l1d=st.booleans(),
    classify=st.booleans(),
    l1i=st.booleans(),
    network=st.sampled_from(["magic", "mesh"]),
    sync=st.sampled_from(["lax", "lax_barrier", "lax_p2p"]),
    sample=st.sampled_from(sorted(SAMPLES)),
    transport=st.sampled_from(["pipe", "tcp"]),
    telemetry=st.booleans(),
    perturb=st.sampled_from(["none", "drain", "ckpt"]),
    profile=st.booleans(),
)
def test_mp_equals_inproc_under_any_drawn_combination(
        program, protocol, l1d, classify, l1i, network, sync, sample,
        transport, telemetry, perturb, profile):
    drawn = (program, protocol, l1d, classify, l1i, network, sync, sample,
             telemetry)
    expected, expected_stream, expected_order = _reference(*drawn)

    cfg = _drawn_config(*drawn)
    cfg.distrib.backend = "mp"
    cfg.distrib.transport = transport
    cfg.profile.enabled = profile  # the mp run only: an observer
    ref = make_program_ref(PROGRAMS[program][1])
    with tempfile.TemporaryDirectory() as scratch:
        if perturb == "drain":
            cfg.distrib.drain_turn = 5
        elif perturb == "ckpt":
            cfg.ckpt.dir = scratch
            cfg.ckpt.every = 8
            cfg.ckpt.keep = 9
        cfg.validate()
        sim = create_simulator(cfg)
        assert canonical_result_bytes(sim.run(ref)) == expected
        if perturb == "ckpt":
            # The newest snapshot, or the one taken while functional.
            restored, manifest = load_checkpoint(
                scratch, None if sample == "none" else "ckpt-00000008")
            assert manifest["turn"] > 0
            assert restored.exec_functional == (sample != "none")
            assert canonical_result_bytes(restored.resume_run()) \
                == expected
            assert (restored.host_profile is not None) == profile
    assert (sim.host_profile is not None) == profile
    if telemetry and perturb == "none":
        # Migrated and restored shards run unobserved from then on, so
        # only an unperturbed run has the whole stream to compare.
        assert _event_stream(sim) == expected_stream
        assert _coordinator_order(sim) == expected_order


@pytest.mark.parametrize("protocol", ["msi", "mesi"])
def test_worker_l1s_mirror_the_coordinator_l2s(protocol):
    """Between quanta, once the notes still pending are applied, every
    L1D line a worker holds has the bytes of the coordinator's L2 line,
    is M exactly when that is, and both L1s are included in the L2."""
    cfg = _drawn_config("sharing", protocol, True, False, True, "mesh",
                        "lax", "none", False)
    cfg.distrib.backend = "mp"
    cfg.validate()
    sim = create_simulator(cfg)
    audits = []

    def audit(_scheduler) -> None:
        l1s = {}
        for name, blob in sim._checkpoint_blobs().items():
            if name.startswith("shard"):
                shard = pickle.loads(blob)
                for kernel in [shard["kernel"], *shard["adopted"]]:
                    l1s.update(kernel.engine.hierarchies)
        pending = list(sim._l1_notes)
        for tile, line_address, action in pending:
            getattr(l1s[tile], action)(line_address)
        lines = 0
        for tile, l1 in l1s.items():
            hierarchy = sim.engine.hierarchies[tile]
            hierarchy.l1i, hierarchy.l1d = l1.l1i, l1.l1d
            try:
                assert hierarchy.check_inclusion(), tile
            finally:
                hierarchy.l1i = hierarchy.l1d = None
            for line in l1.l1d:
                truth = hierarchy.l2.peek(line.address)
                assert bytes(line.data) == bytes(truth.data), tile
                assert (line.state is LineState.MODIFIED) \
                    == (truth.state is LineState.MODIFIED), tile
                lines += 1
        audits.append((len(pending), lines))

    sim.scheduler.set_stage("ckpt", 2, audit)
    sim.run(make_program_ref(_sharing_main))
    assert len(audits) >= 8
    assert any(pending for pending, _ in audits)  # laziness was observed
    assert all(lines for _, lines in audits)
