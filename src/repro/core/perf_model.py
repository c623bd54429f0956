"""The in-order core performance model.

Consumes dynamic instructions and pseudo-instructions and advances the
tile-local clock (paper §3.1).  The model is configurable through
:class:`repro.common.config.CoreConfig`: per-class instruction costs,
branch predictor geometry and misprediction penalty, store-buffer and
load-queue depths.

The model never performs functional work; it only accounts time.  This
keeps it swappable: a different core model (e.g. out-of-order issue)
could consume the same streams.
"""

from __future__ import annotations

from typing import Iterable, Optional, Tuple, TYPE_CHECKING

from repro.common.config import CoreConfig
from repro.common.stats import StatGroup
from repro.core.branch import BranchPredictor
from repro.core.clock import TileClock
from repro.core.instruction import (
    BranchInstruction,
    Instruction,
    PseudoInstruction,
    PseudoKind,
)
from repro.core.isa import DEFAULT_COST, InstructionClass
from repro.core.lsu import LoadQueue, StoreBuffer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.telemetry.bus import Channel

#: Latency charged when a load hits a buffered store (forwarding).
STORE_FORWARD_LATENCY = 1

_LOAD, _STORE = InstructionClass.LOAD, InstructionClass.STORE

#: One entry of a run a core model retires: ``(klass, value, latency)``
#: — a load or store at address ``value`` and its memory latency, or
#: ``value`` instructions of a computational ``klass`` (latency 0).
Entry = Tuple[InstructionClass, int, int]


class CoreModel:
    """What every core timing model holds: the tile clock, the branch
    predictor, the retirement and stall counters."""

    __slots__ = ("config", "clock", "stats", "_tele", "_tile",
                 "branch_predictor", "_costs", "_instructions",
                 "_memory_stall", "_branch_stall", "_sync_wait")

    def __init__(self, config: CoreConfig, stats: StatGroup,
                 telemetry: Optional["Channel"] = None,
                 tile: Optional[int] = None) -> None:
        self.config = config
        self.clock = TileClock()
        self.stats = stats
        #: SYNC-category telemetry channel for stall events, or ``None``.
        self._tele = telemetry
        self._tile = tile
        self.branch_predictor = BranchPredictor(
            config.branch_predictor_entries, stats.child("branch"))
        self._costs = config.instruction_costs
        self._instructions = stats.counter("instructions")
        self._memory_stall = stats.counter("memory_stall_cycles")
        self._branch_stall = stats.counter("branch_stall_cycles")
        self._sync_wait = stats.counter("sync_wait_cycles")

    @property
    def cycles(self) -> int:
        """Current local clock in cycles."""
        return self.clock.cycles

    @property
    def instruction_count(self) -> int:
        return self._instructions.value


class CorePerfModel(CoreModel):
    """Timing model of one in-order core with an OoO memory interface."""

    __slots__ = ("store_buffer", "load_queue")

    def __init__(self, config: CoreConfig, stats: StatGroup,
                 telemetry: Optional["Channel"] = None,
                 tile: Optional[int] = None) -> None:
        super().__init__(config, stats, telemetry, tile)
        self.store_buffer = StoreBuffer(
            config.store_buffer_entries, stats.child("lsu"))
        self.load_queue = LoadQueue(
            config.load_queue_entries, stats.child("lsu"))

    # -- instruction consumption -------------------------------------------

    def retire(self, run: Iterable[Entry]) -> int:
        """Retire ``run`` in order; returns the cycles the clock moved.

        Each entry is ``(klass, value, latency)``: a load or store at
        address ``value`` whose memory round trip (network legs of a
        miss included) took ``latency`` cycles, or ``value``
        computational instructions of ``klass``.  Loads are charged in
        full (the in-order core needs the value), shortened to the
        forwarding latency when a buffered store holds the address; the
        load queue adds structural stalls.  Stores are buffered, so the
        pipeline only stalls when the store buffer is full.  The store
        buffer and load queue are worked here, one entry after another,
        with the clock and counters in locals until the run is done.
        """
        costs = self._costs
        load_cost = costs.get("load", DEFAULT_COST)
        store_cost = costs.get("store", DEFAULT_COST)
        store_buffer, load_queue = self.store_buffer, self.load_queue
        stores, loads = store_buffer._inflight, load_queue._inflight
        max_stores, max_loads = store_buffer.entries, load_queue.entries
        start = now = self.clock.cycles
        instructions = memory_stall = 0
        store_stall = load_stall = issued_stores = issued_loads = 0
        for klass, value, latency in run:
            if klass is _LOAD:
                for buffered in stores:
                    if buffered[1] == value:
                        if latency > STORE_FORWARD_LATENCY:
                            latency = STORE_FORWARD_LATENCY
                        break
                while loads and loads[0] <= now:
                    loads.popleft()
                stall = 0
                if len(loads) >= max_loads:
                    stall = loads[0] - now  # > 0: the head is in flight
                    while loads and loads[0] <= now + stall:
                        loads.popleft()
                    load_stall += stall
                loads.append(now + stall + latency)
                issued_loads += 1
                stall += latency
                now += load_cost + stall
                memory_stall += stall
                instructions += 1
            elif klass is _STORE:
                while stores and stores[0][0] <= now:
                    stores.popleft()
                stall = 0
                if len(stores) >= max_stores:
                    stall = stores[0][0] - now
                    while stores and stores[0][0] <= now + stall:
                        stores.popleft()
                    store_stall += stall
                stores.append((now + stall + latency, value))
                issued_stores += 1
                now += store_cost + stall
                memory_stall += stall
                instructions += 1
            else:
                cycles = value * costs.get(klass._value_, DEFAULT_COST)
                if cycles < 0:
                    raise ValueError("clock cannot move backwards")
                now += cycles
                instructions += value
        self.clock.cycles = now
        self._instructions.value += instructions
        if memory_stall:
            self._memory_stall.value += memory_stall
        if issued_stores:
            store_buffer._stores.value += issued_stores
            store_buffer._stalls.value += store_stall
        if issued_loads:
            load_queue._loads.value += issued_loads
            load_queue._stalls.value += load_stall
        return now - start

    def execute(self, instruction: Instruction) -> None:
        """Retire a batch of computational instructions (anything with
        a ``klass`` and a ``count``): a run of one."""
        self.retire(((instruction.klass, instruction.count, 0),))

    def execute_memory(self, klass: InstructionClass, address: int,
                       size: int, latency: int) -> int:
        """Retire one load or store (a run of one); returns the cycles
        the pipeline spent on it."""
        if klass is not _LOAD and klass is not _STORE:
            raise ValueError(f"not a memory instruction class: {klass}")
        return self.retire(((klass, address, latency),))

    def execute_branch(self, branch: BranchInstruction) -> bool:
        """Retire a branch; charge the penalty on a misprediction."""
        cost = self._costs.get("branch", DEFAULT_COST)
        mispredicted = self.branch_predictor.predict_and_update(
            branch.pc, branch.taken)
        if mispredicted:
            cost += self.config.branch_mispredict_penalty
            self._branch_stall.add(self.config.branch_mispredict_penalty)
        self.clock.advance(cost)
        self._instructions.value += 1
        return mispredicted

    def execute_pseudo(self, pseudo: PseudoInstruction) -> None:
        """Consume a pseudo-instruction from elsewhere in the system."""
        if pseudo.kind in (PseudoKind.MESSAGE_RECEIVE, PseudoKind.SYNC,
                           PseudoKind.SPAWN):
            before = self.clock.cycles
            self.clock.forward_to(pseudo.time)
            waited = self.clock.cycles - before
            self._sync_wait.add(waited)
            if waited > 0 and self._tele is not None:
                self._tele.emit("stall", self._tile, before,
                                {"cycles": waited,
                                 "kind": pseudo.kind.value})
        if pseudo.cost:
            self.clock.advance(pseudo.cost)

    def drain(self) -> None:
        """Wait for in-flight memory operations to complete.

        The in-order model already charges load latency synchronously;
        only buffered stores can be outstanding, and they never gate
        the local clock — so this is a no-op, present for interface
        parity with the out-of-order model.
        """


class UnitCostCoreModel:
    """Fast-forward as a core model (:mod:`repro.sample`): consumes the
    streams the timed models do, at one cycle an instruction.

    It stands in for ``timed`` for one quantum, over the same clock and
    retirement counter — the clock still advances (lax synchronization
    needs monotone clocks), the predictor, LSU, window and stall
    accounting do not.  Nothing here reads the core configuration, so
    forks of a shared fast-forward snapshot agree whatever timed model
    each resumes under.
    """

    __slots__ = ("clock", "_instructions", "_timed")

    def __init__(self, timed: CoreModel) -> None:
        self.clock = timed.clock
        self._instructions = timed._instructions
        self._timed = timed

    @property
    def cycles(self) -> int:
        return self.clock.cycles

    def retire(self, run: Iterable[Entry]) -> int:
        """A cycle per instruction; a load or store is one."""
        cycles = 0
        for klass, value, _latency in run:
            cycles += 1 if klass is _LOAD or klass is _STORE else value
        self.clock.advance(cycles)
        self._instructions.value += cycles
        return cycles

    def execute(self, instruction: Instruction) -> None:
        self.retire(((instruction.klass, instruction.count, 0),))

    def execute_branch(self, branch: BranchInstruction) -> bool:
        self.clock.advance(1)
        self._instructions.value += 1
        return False

    def execute_memory(self, klass: InstructionClass, address: int,
                       size: int, latency: int) -> int:
        return self.retire(((klass, address, latency),))

    def execute_pseudo(self, pseudo: PseudoInstruction) -> None:
        self.clock.forward_to(pseudo.time)
        if pseudo.cost:
            self.clock.advance(pseudo.cost)

    def drain(self) -> None:
        """What is in flight is the timed model's, from before the
        switch to fast-forward."""
        self._timed.drain()
