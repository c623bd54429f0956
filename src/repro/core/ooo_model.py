"""An out-of-order core performance model.

Paper §3.1: "It is also possible to implement core models that differ
drastically from the operation of the functional models — i.e.,
although the simulator is functionally in-order with sequentially
consistent memory, the core performance model can be an out-of-order
core with a relaxed memory model.  Models throughout the remainder of
the system will reflect the new core type, as they are ultimately based
on clocks updated by the core model."

This model demonstrates exactly that swap.  It approximates an OoO
machine with a reorder-buffer window and multi-issue dispatch:

* instructions dispatch ``dispatch_width`` per cycle;
* memory operations occupy a window slot until their (memory-model
  supplied) latency elapses, overlapping with later work instead of
  stalling the pipeline — memory-level parallelism up to the window
  size;
* the pipeline stalls only when the window is full (waiting for the
  oldest entry) — an in-order-retire approximation of ROB pressure;
* branch mispredictions flush: the penalty is charged and the window
  drains (speculative overlap across a mispredicted branch is lost);
* synchronization pseudo-instructions drain the window before the
  clock forwards (a sync event orders everything before it).

The functional simulator remains sequentially consistent; only *time*
changes — which is the paper's point.
"""

from __future__ import annotations

import heapq
from typing import Iterable, List

from repro.common.config import CoreConfig
from repro.common.stats import StatGroup
from repro.core.instruction import (
    BranchInstruction,
    Instruction,
    PseudoInstruction,
    PseudoKind,
)
from repro.core.isa import DEFAULT_COST, InstructionClass
from repro.core.perf_model import CoreModel, Entry

_LOAD, _STORE = InstructionClass.LOAD, InstructionClass.STORE


class OutOfOrderCoreModel(CoreModel):
    """Window-based OoO timing model (same interface as the in-order)."""

    __slots__ = ("window_size", "dispatch_width", "_window",
                 "_dispatch_backlog", "_window_stalls", "_overlapped")

    def __init__(self, config: CoreConfig, stats: StatGroup,
                 telemetry=None, tile=None) -> None:
        super().__init__(config, stats, telemetry, tile)
        self.window_size = config.rob_entries
        self.dispatch_width = max(config.dispatch_width, 1)
        #: Min-heap of completion times of in-flight long-latency ops.
        self._window: List[int] = []
        #: Fractional dispatch accumulator (width > 1).
        self._dispatch_backlog = 0.0
        self._window_stalls = stats.counter("window_stall_cycles")
        self._overlapped = stats.counter("overlapped_latency_cycles")

    # -- internal helpers ---------------------------------------------------

    def _dispatch(self, issue_cycles: float) -> None:
        """Advance the clock by front-end dispatch time."""
        # The backlog intentionally accumulates fractional issue cycles;
        # only whole cycles ever reach the clock below.
        self._dispatch_backlog += (
            issue_cycles / self.dispatch_width)  # check: allow D004 -- fractional backlog
        whole = int(self._dispatch_backlog)
        if whole:
            self.clock.advance(whole)
            self._dispatch_backlog -= whole
        self._retire_completed()

    def _retire_completed(self) -> None:
        now = self.clock.cycles
        while self._window and self._window[0] <= now:
            heapq.heappop(self._window)

    def _reserve_slot(self) -> None:
        """Stall until the window has room for one more in-flight op."""
        if len(self._window) >= self.window_size:
            oldest = heapq.heappop(self._window)
            if oldest > self.clock.cycles:
                self._window_stalls.add(oldest - self.clock.cycles)
                self.clock.forward_to(oldest)
            self._retire_completed()

    def drain(self) -> None:
        """Wait for every in-flight operation to complete."""
        if self._window:
            last = max(self._window)
            if last > self.clock.cycles:
                self._memory_stall.add(last - self.clock.cycles)
                self.clock.forward_to(last)
            self._window.clear()

    # -- the core-model interface ----------------------------------------------

    def retire(self, run: Iterable[Entry]) -> int:
        """Retire ``run`` (entries as :meth:`CorePerfModel.retire`'s) in
        order; returns the cycles the clock moved.  Memory ops overlap:
        they occupy a window slot, not the pipe."""
        costs = self._costs
        start = self.clock.cycles
        for klass, value, latency in run:
            if klass is _LOAD or klass is _STORE:
                self._dispatch(costs.get(klass._value_, DEFAULT_COST))
                self._reserve_slot()
                heapq.heappush(self._window, self.clock.cycles + latency)
                self._overlapped.value += latency
                self._instructions.value += 1
            else:
                self._dispatch(value * costs.get(klass._value_,
                                                 DEFAULT_COST))
                self._instructions.value += value
        return self.clock.cycles - start

    def execute(self, instruction: Instruction) -> None:
        self.retire(((instruction.klass, instruction.count, 0),))

    def execute_branch(self, branch: BranchInstruction) -> bool:
        mispredicted = self.branch_predictor.predict_and_update(
            branch.pc, branch.taken)
        self._dispatch(self._costs.get("branch", DEFAULT_COST))
        if mispredicted:
            # Flush: lose the overlap and pay the redirect penalty.
            self.drain()
            self.clock.advance(self.config.branch_mispredict_penalty)
            self._branch_stall.add(self.config.branch_mispredict_penalty)
        self._instructions.value += 1
        return mispredicted

    def execute_memory(self, klass: InstructionClass, address: int,
                       size: int, latency: int) -> int:
        """Retire one load or store (a run of one)."""
        if klass is not _LOAD and klass is not _STORE:
            raise ValueError(f"not a memory instruction class: {klass}")
        return self.retire(((klass, address, latency),))

    def execute_pseudo(self, pseudo: PseudoInstruction) -> None:
        if pseudo.kind in (PseudoKind.MESSAGE_RECEIVE, PseudoKind.SYNC,
                           PseudoKind.SPAWN):
            # Synchronization orders everything before it.
            self.drain()
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
