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
from typing import List, Optional, TYPE_CHECKING

from repro.common.config import HostConfig
from repro.host.cluster import Locality

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.host.scheduler import Scheduler

#: Jitter factors drawn per refill (even: Box–Muller yields pairs).
BLOCK = 256
#: Bound once, as ``Transport.account`` binds the localities.
_CROSS_MACHINE = Locality.CROSS_MACHINE


class HostCostModel:
    """Charges the host seconds each class of simulation event costs.

    The ``charge_*`` methods are what the models call, once per event:
    each multiplies its cost by the next jitter factor and adds the
    product to the open quantum of ``scheduler`` — :meth:`Scheduler.
    charge`'s sum, made here because a call is a frame and an L1 hit
    makes three charges; outside a quantum (core 0) and for a negative
    cost (an error) they do call it.  While the scheduler fast-forwards
    (:mod:`repro.sample`) nothing is charged and nothing drawn.

    The factors ``1 + z·σ`` are drawn :data:`BLOCK` at a time with the
    arithmetic of :meth:`random.Random.gauss`, so the n-th event costs
    bit for bit what one ``gauss`` draw of mean 0 and deviation σ per
    event made it; the unspent factors are ordinary state and ride a
    snapshot.
    """

    __slots__ = ("config", "_rng", "_factors", "scheduler", "_instr_cost",
                 "_message")

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

    def charge_instructions(self, count: int) -> None:
        """Interpreting ``count`` instrumented instructions."""
        scheduler = self.scheduler
        if scheduler.functional:
            return
        factors = self._factors
        seconds = count * self._instr_cost * (
            factors.pop() if factors else self._refill())
        if scheduler._running is None or seconds < 0:
            scheduler.charge(seconds)
        else:
            scheduler._quantum_charge += seconds

    def charge_trap(self) -> None:
        """One trap into a back-end model."""
        scheduler = self.scheduler
        if scheduler.functional:
            return
        factors = self._factors
        seconds = self.config.model_trap_cost * (
            factors.pop() if factors else self._refill())
        if scheduler._running is None or seconds < 0:
            scheduler.charge(seconds)
        else:
            scheduler._quantum_charge += seconds

    def charge_memory_access(self) -> None:
        """Servicing one memory-hierarchy model access."""
        scheduler = self.scheduler
        if scheduler.functional:
            return
        factors = self._factors
        seconds = self.config.memory_model_cost * (
            factors.pop() if factors else self._refill())
        if scheduler._running is None or seconds < 0:
            scheduler.charge(seconds)
        else:
            scheduler._quantum_charge += seconds

    def charge_message(self, locality: Locality, size_bytes: int,
                       blocking: bool) -> None:
        """One one-way message: its CPU cost consumes the core (copies
        are cheap, so it is size-independent); when ``blocking``, the
        wire/stack latency also holds the waiting thread off its core,
        which stays free to run other tile threads meanwhile."""
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
