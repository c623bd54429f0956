"""The mp wire costs one round trip per L1 miss — as a count.

A program with a known op mix runs on the mp backend with every
coordinator-side channel wrapped in a frame counter.  The L1s live in
the workers, so the budget is two frames (call + reply) per L1I miss,
L1D miss and write upgrade — the three read from the result's own
counters — two per scheduler turn (RUN_QUANTUM + QUANTUM_DONE), and a
constant for formation, spawn/join traffic, collection and shutdown.
Wire v7's round trip per front-end op blows it four times over; so
does anything that routes hits back over the wire, or gives purges,
store data or charges a frame of their own.
"""

from __future__ import annotations

import pytest

import repro.distrib.coordinator as coordinator_module
from repro.common.config import SimulationConfig
from repro.distrib.wire import PickledProgram, make_program_ref
from repro.net.channel import Channel
from repro.sim.runner import create_simulator

WORKERS = 3
ROUNDS = 40
#: Per thread and round: one load, one compute, one store, one branch.
MEMORY_OPS = (WORKERS + 1) * ROUNDS * 2
COMPUTE_BRANCH_OPS = (WORKERS + 1) * ROUNDS * 2
#: Everything that does not scale with the op count: HELLO, SHUTDOWN
#: and the three COLLECT_* round trips per worker process, one malloc,
#: and per spawned thread the spawn and join protocols (system-network
#: round trips, SPAWN, NOTIFY_WAKE).
CONSTANT = 20 + 20 * WORKERS


def _body(ctx, index, base):
    slot = base + 8 * ROUNDS * index
    for i in range(ROUNDS):
        # A line's first touch is a read miss, its first store an
        # upgrade; the seven rounds after that hit.
        value = yield from ctx.load_u64(slot + 8 * i)
        yield from ctx.compute(3)
        yield from ctx.store_u64(slot + 8 * i, value + i)
        yield from ctx.branch(value == 0)


def _main(ctx):
    base = yield from ctx.malloc(8 * ROUNDS * (WORKERS + 1), 64)
    threads = yield from ctx.spawn_workers(_body, WORKERS, base)
    yield from _body(ctx, WORKERS, base)
    yield from ctx.join_all(threads)


class _CountingChannel(Channel):
    """Delegating channel that counts the frames crossing it."""

    def __init__(self, inner: Channel) -> None:
        self._inner = inner
        self.proc = inner.proc
        self.frames = 0

    def send_bytes(self, blob: bytes) -> None:
        self.frames += 1
        self._inner.send_bytes(blob)

    def recv_bytes(self) -> bytes:
        self.frames += 1
        return self._inner.recv_bytes()

    def poll(self, timeout: float = 0.0) -> bool:
        return self._inner.poll(timeout)

    def alive(self) -> bool:
        return self._inner.alive()

    def describe(self) -> str:
        return self._inner.describe()

    def close(self) -> None:
        self._inner.close()


@pytest.mark.parametrize("transport", ["pipe", "tcp"])
def test_frames_stay_within_one_round_trip_per_op(transport, monkeypatch):
    counted: list = []

    class CountedCluster(coordinator_module.WorkerCluster):
        def __init__(self, *args, **kwargs) -> None:
            super().__init__(*args, **kwargs)
            self._channels = [_CountingChannel(channel)
                              for channel in self._channels]
            counted.extend(self._channels)

    monkeypatch.setattr(coordinator_module, "WorkerCluster",
                        CountedCluster)
    cfg = SimulationConfig(num_tiles=4, seed=7)
    cfg.host.num_machines = 2
    cfg.host.cores_per_machine = 2
    cfg.host.quantum_instructions = 100
    cfg.distrib.backend = "mp"
    cfg.distrib.transport = transport
    cfg.validate()
    assert cfg.memory.l1i.enabled  # every op fetches
    # Under MESI a first store to an E line crosses uncounted.
    assert cfg.memory.protocol == "msi"
    sim = create_simulator(cfg)
    program = make_program_ref(_main)
    assert isinstance(program, PickledProgram)
    counters = sim.run(program).counters

    def total(suffix: str) -> int:
        return sum(value for name, value in counters.items()
                   if name.endswith(suffix))

    assert total(".fetches") == MEMORY_OPS + COMPUTE_BRANCH_OPS
    crossings = (total(".l1i.lookups") - total(".l1i.hits")
                 + total(".l1d.lookups") - total(".l1d.hits")
                 + total("memory.upgrades"))
    assert total("memory.upgrades") > 0
    assert crossings < MEMORY_OPS // 2  # hits are the common case
    turns = sim.scheduler.turns
    # Formation's HELLO (one per worker) predates the wrap; it is part
    # of CONSTANT all the same.
    frames = len(counted) + sum(channel.frames for channel in counted)
    budget = 2 * crossings + 2 * turns + CONSTANT
    assert frames <= budget, (frames, budget, crossings, turns)
    # The budget is tight enough to notice one extra frame per memory
    # op, let alone the two a forwarded access costs.
    assert frames + MEMORY_OPS > budget


STORES = 300


def _stores(ctx):
    base = yield from ctx.calloc(64, 64)
    for i in range(STORES):
        yield from ctx.store_u64(base, i)


def test_store_hits_seal_no_charges_of_their_own(monkeypatch):
    """A store hit forwards its bytes as a ``store_data`` cast, which
    reads no host time: the host charges logged around it stay one
    ``charges`` cast per frame, not one per store."""
    from repro.host.costmodel import HostCostModel
    priced: list = []
    charge_events = HostCostModel.charge_events

    def counted(self, codes):
        priced.append(len(codes))
        return charge_events(self, codes)

    monkeypatch.setattr(HostCostModel, "charge_events", counted)
    cfg = SimulationConfig(num_tiles=2, seed=3)
    cfg.host.num_machines = 1
    cfg.host.cores_per_machine = 2
    cfg.host.quantum_instructions = 10 ** 6
    cfg.distrib.backend = "mp"
    cfg.validate()
    result = create_simulator(cfg).run(make_program_ref(_stores))
    assert result.counters["sim.mc0.stores"] == STORES + 1
    # The stores' codes (fetch, access, instruction) are all priced...
    assert sum(priced) >= 3 * STORES
    # ...in a few casts: one per frame the worker sent, not per store.
    assert len(priced) < 20, len(priced)
