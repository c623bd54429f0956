"""The miss path's depth, as a count of Python frames per event.

Each event runs on a 4-tile simulator under ``sys.setprofile`` and every
Python ``call`` event is counted, except the host cost model's jitter
refill (one frame per 256 factors drawn, wherever the block runs out).
The simulator is inside an open quantum, as the engine is when a
thread's miss reaches it, so a charge is the cost model's sum and not
a call into the scheduler.  The counts are exact and the same on every
run.

A coherence leg is ``NetworkFabric.transfer``, the model's ``route``,
``Transport.account`` and the cost model's charger (DESIGN.md §3 "A
miss in one pass").  At the parent commit a leg was 18 frames (17 under
``transfer`` plus the engine's ``_transfer``), a read miss served from
DRAM 64, a write miss that recalls a dirty owner 107 and an upgrade that
invalidates two sharers 136; they are 4 / 24 / 39 / 43 now (an L2
fill's set bookkeeping is one frame, ``Cache._place``).  A miss
kind's budget is half its parent count: room for an honest seam, not
for a helper chain to grow back.
"""

from __future__ import annotations

import gc
import sys

import pytest

from repro.common.config import SimulationConfig
from repro.common.ids import TileId
from repro.host.costmodel import HostCostModel
from repro.sim.runner import create_simulator
from repro.transport.message import MessageKind

#: Frames one event cost at the parent commit, and may cost now.
PARENT = {"leg": 18, "read_dram": 64, "write_recall": 107, "upgrade": 136}
BUDGET = {**{case: frames // 2 for case, frames in PARENT.items()},
          "leg": 4}
#: Lines each case touches; each case owns a disjoint range of them.
LINES = 32
HEAP = 0x1000_0000
LINE = 64

_REFILL = HostCostModel._refill.__code__


class _Running:
    """Stands for the thread whose quantum is open."""


@pytest.fixture
def sim():
    config = SimulationConfig(num_tiles=4, seed=3)
    config.validate()
    simulator = create_simulator(config)
    simulator.scheduler._running = _Running()
    return simulator


def _frames(call, *args) -> int:
    """Python frames ``call(*args)`` opens, jitter refills left out."""
    calls = 0

    def on_event(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code is not _REFILL:
            calls += 1

    # No collection inside the count: a ``gc.callbacks`` hook is a
    # Python frame that comes and goes.
    collecting = gc.isenabled()
    gc.disable()
    sys.setprofile(on_event)
    try:
        call(*args)
    finally:
        sys.setprofile(None)
        if collecting:
            gc.enable()
    return calls


def _lines(case: int):
    base = HEAP + case * 4096 * LINE
    return [base + i * LINE for i in range(LINES)]


def _counts(sim, case: str) -> set:
    engine = sim.engine
    t0, t1, t2 = TileId(0), TileId(1), TileId(2)
    if case == "leg":
        return {_frames(sim.fabric.transfer, t0, TileId(3),
                        MessageKind.MEMORY, 72, 100)
                for _ in range(LINES)}
    if case == "read_dram":
        return {_frames(engine.read_access, t0, line, 8, 1000)
                for line in _lines(0)}
    if case == "write_recall":
        for line in _lines(1):
            engine.write_access(t1, line, 8, 1000)
        return {_frames(engine.write_access, t0, line, 8, 2000)
                for line in _lines(1)}
    assert case == "upgrade"
    for line in _lines(2):
        for tile in (t1, t2, t0):
            engine.read_access(tile, line, 8, 1000)
    return {_frames(engine.write_access, t0, line, 8, 3000)
            for line in _lines(2)}


@pytest.mark.parametrize("case", sorted(BUDGET))
def test_frames_per_miss_event_stay_in_budget(sim, case):
    counts = _counts(sim, case)
    assert len(counts) == 1, counts  # exact: every event the same
    frames = counts.pop()
    assert 0 < frames <= BUDGET[case], (case, frames)


def test_the_counted_events_are_the_named_protocol_actions(sim):
    """Each case does what its name says, so a budget cannot pass by
    counting a cheaper event."""
    memory = sim.stats.child("memory")
    packets = sim.stats.child("network").child("memory_net").counter(
        "packets")
    dram_reads = sum(memory.child(f"dram{t}").counter("reads").value
                     for t in range(4))
    assert dram_reads == 0
    _counts(sim, "read_dram")
    assert memory.counter("read_misses").value == LINES
    assert packets.value == 2 * LINES
    assert sum(memory.child(f"dram{t}").counter("reads").value
               for t in range(4)) == LINES
    before = packets.value
    _counts(sim, "write_recall")
    # A first write miss (2 legs), then the recall (4 legs) per line.
    assert memory.counter("write_misses").value == 2 * LINES
    assert packets.value - before == 6 * LINES
    before = packets.value
    _counts(sim, "upgrade")
    assert memory.counter("upgrades").value == LINES
    # Three reads (2, 4 and 4 legs: the last two forwarded) and an
    # upgrade: a request, two invalidations with their acks, the grant.
    assert packets.value - before == (10 + 6) * LINES
