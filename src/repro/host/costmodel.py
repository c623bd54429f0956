"""Per-event host-time cost model.

This is the substitute for the paper's physical testbed (§4.1: dual
quad-core Xeon X5460 machines on Gigabit ethernet).  Every simulation
event is charged a host cost; the scheduler accumulates these per host
core and reports wall-clock time as the parallel makespan.  Costs carry
multiplicative seeded jitter modelling OS noise — the source of
run-to-run variation that the paper's Table 3 quantifies as CoV.

The constants live in :class:`repro.common.config.HostConfig`; this
module only combines them.
"""

from __future__ import annotations

import random
from math import cos, log, sin, sqrt
from typing import List, Optional, Sequence, TYPE_CHECKING

from repro.common import restore_slots, slot_state
from repro.common.config import HostConfig
from repro.host.cluster import Locality

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.host.scheduler import Scheduler

#: Jitter factors drawn per refill (even: Box–Muller yields pairs).
BLOCK = 256
#: Event codes (:meth:`HostCostModel.charge_events`): a memory-model
#: access, a trap into a back-end model, and ``INSTRUCTIONS + n`` for
#: ``n`` interpreted instructions.
MEMORY_ACCESS, TRAP, INSTRUCTIONS = 0, 1, 2
#: Bound once, as ``Transport.account`` binds the localities.
_CROSS_MACHINE = Locality.CROSS_MACHINE


class HostCostModel:
    """Charges the host seconds each class of simulation event costs.

    The per-op events — a memory-model access, a trap into a back-end
    model, ``n`` interpreted instructions — are not charged where they
    happen: the interpreter and the memory controllers append one int
    code each (``0``, ``1``, ``n + 2``) to :attr:`codes`, and
    :meth:`charge_events` prices them.  In process the log is priced by
    :meth:`settle` wherever host time is read or a jitter factor drawn
    (:meth:`charge_message`, :meth:`message` and the scheduler's
    charges, host-time reads and quantum end), so every factor goes to
    the event it went to when each event drew its own; an mp worker
    ships its log to be priced by :meth:`charge_events` on the
    coordinator.  While the scheduler fast-forwards (:mod:`repro.sample`)
    nothing is logged, charged or drawn.

    The factors ``1 + z·σ`` are drawn :data:`BLOCK` at a time with the
    arithmetic of :meth:`random.Random.gauss`, so the n-th event costs
    bit for bit what one ``gauss`` draw of mean 0 and deviation σ per
    event made it; the unspent factors are ordinary state and ride a
    snapshot.  The log is empty at every quantum boundary and is not
    pickled.
    """

    __slots__ = ("config", "_rng", "_factors", "scheduler", "_instr_cost",
                 "_message", "codes")

    def __init__(self, config: HostConfig,
                 rng: Optional[random.Random] = None) -> None:
        config.validate()
        self.config = config
        self._rng = rng if config.jitter else None
        #: Unspent jitter factors, the next one last.
        self._factors: List[float] = []
        #: The scheduler built over this model (it sets this).
        self.scheduler: Optional["Scheduler"] = None
        self._instr_cost = (config.native_instruction_cost
                            * config.instrumentation_overhead)
        #: Per locality: (CPU cost, wire/stack latency) of one message.
        self._message = {
            Locality.SAME_PROCESS: (config.intra_process_message_cost,
                                    config.intra_process_message_latency),
            Locality.SAME_MACHINE: (config.inter_process_message_cost,
                                    config.inter_process_message_latency),
            Locality.CROSS_MACHINE: (config.inter_machine_message_cost,
                                     config.inter_machine_message_latency),
        }
        #: Event codes logged in process and not yet priced; the
        #: controllers append to this very list, so it is only ever
        #: cleared in place.
        self.codes: List[int] = []

    def __getstate__(self) -> tuple:
        state = slot_state(self)
        del state["codes"]  # empty between quanta, and host-side
        return None, state

    def __setstate__(self, state: tuple) -> None:
        restore_slots(self, state)
        self.codes = []

    # -- jitter ---------------------------------------------------------

    def _refill(self) -> float:
        """Draw the next block into ``_factors`` (in place) and return
        its first factor.  Without an RNG, or at σ = 0, the block is
        ones and no stream is consumed."""
        factors = self._factors
        if self._rng is None:
            factors.extend([1.0] * BLOCK)
            return factors.pop()
        uniform, sigma = self._rng.random, self.config.jitter
        for _ in range(BLOCK // 2):
            x2pi = uniform() * random.TWOPI
            g2rad = sqrt(-2.0 * log(1.0 - uniform()))
            factors.append(1.0 + cos(x2pi) * g2rad * sigma)
            factors.append(1.0 + sin(x2pi) * g2rad * sigma)
        factors.reverse()
        return factors.pop()

    # -- per-event charges ------------------------------------------------

    def charge_events(self, codes: Sequence[int]) -> None:
        """Price event codes, in order: 0 a memory-model access, 1 a
        trap into a back-end model, ``n + 2`` ``n`` interpreted
        instructions.  Each costs its nominal seconds times the next
        jitter factor, added to the open quantum — :meth:`Scheduler.
        charge`'s sum, made here — or, outside a quantum or for a
        negative cost, charged through it."""
        scheduler = self.scheduler
        if scheduler.functional:
            return
        factors = self._factors
        costs = (self.config.memory_model_cost, self.config.model_trap_cost)
        instr_cost = self._instr_cost
        in_quantum = scheduler._running is not None
        for code in codes:
            seconds = (costs[code] if code < 2 else (code - 2) * instr_cost) \
                * (factors.pop() if factors else self._refill())
            if in_quantum and seconds >= 0:
                scheduler._quantum_charge += seconds
            else:
                scheduler.charge(seconds)

    def settle(self) -> None:
        """Price the codes logged in process so far (:attr:`codes`),
        leaving the log empty before any is priced (a charge outside a
        quantum settles first)."""
        codes = self.codes
        if codes:
            logged = codes[:]
            codes.clear()
            self.charge_events(logged)

    def charge_message(self, locality: Locality, size_bytes: int,
                       blocking: bool) -> None:
        """One one-way message: its CPU cost consumes the core (copies
        are cheap, so it is size-independent); when ``blocking``, the
        wire/stack latency also holds the waiting thread off its core,
        which stays free to run other tile threads meanwhile."""
        if self.codes:
            self.settle()
        scheduler = self.scheduler
        if scheduler.functional:
            return
        factors = self._factors
        seconds, latency = self._message[locality]
        seconds *= factors.pop() if factors else self._refill()
        if scheduler._running is None or seconds < 0:
            scheduler.charge(seconds)
        else:
            scheduler._quantum_charge += seconds
        if blocking:
            if locality is _CROSS_MACHINE:
                latency += size_bytes * self.config.inter_machine_byte_cost
            latency *= factors.pop() if factors else self._refill()
            if latency > 0.0 and scheduler._running is not None:
                scheduler._quantum_blocking += latency
            elif latency > 0.0:
                scheduler.charge_blocking(latency)

    # -- costs charged elsewhere ------------------------------------------

    def message(self, locality: Locality) -> float:
        """Jittered CPU cost of one message, for the sync models, which
        charge a thread's core outside any quantum."""
        if self.codes:
            self.settle()
        factors = self._factors
        return self._message[locality][0] * (
            factors.pop() if factors else self._refill())

    def native_instructions(self, count: int) -> float:
        """Host cost of ``count`` instructions run natively (no DBT)."""
        return count * self.config.native_instruction_cost

    def process_startup(self, num_processes: int) -> float:
        """Sequential start-up cost for all host processes.

        Initialization "must be done sequentially for each process"
        (paper §4.2), which bounds scaling at high machine counts.
        """
        return num_processes * self.config.process_startup_cost
