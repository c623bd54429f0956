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
from typing import Optional

from repro.common.config import HostConfig
from repro.host.cluster import Locality


class HostCostModel:
    """Computes host seconds consumed by each class of simulation event."""

    __slots__ = ("config", "_rng", "_instr_cost", "_message_cost",
                 "_message_latency")

    def __init__(self, config: HostConfig,
                 rng: Optional[random.Random] = None) -> None:
        config.validate()
        self.config = config
        self._rng = rng
        self._instr_cost = (config.native_instruction_cost
                            * config.instrumentation_overhead)
        self._message_cost = {
            Locality.SAME_PROCESS: config.intra_process_message_cost,
            Locality.SAME_MACHINE: config.inter_process_message_cost,
            Locality.CROSS_MACHINE: config.inter_machine_message_cost,
        }
        self._message_latency = {
            Locality.SAME_PROCESS: config.intra_process_message_latency,
            Locality.SAME_MACHINE: config.inter_process_message_latency,
            Locality.CROSS_MACHINE: config.inter_machine_message_latency,
        }

    # -- jitter ---------------------------------------------------------

    def _jittered(self, cost: float) -> float:
        if self._rng is None or self.config.jitter == 0.0:
            return cost
        return cost * (1.0 + self._rng.gauss(0.0, self.config.jitter))

    # -- event costs ------------------------------------------------------

    def instructions(self, count: int) -> float:
        """Host cost of executing ``count`` instrumented instructions."""
        return self._jittered(count * self._instr_cost)

    def native_instructions(self, count: int) -> float:
        """Host cost of ``count`` instructions run natively (no DBT)."""
        return count * self.config.native_instruction_cost

    def model_trap(self) -> float:
        """Host cost of one trap into a back-end model."""
        return self._jittered(self.config.model_trap_cost)

    def memory_access(self) -> float:
        """Host cost of servicing one memory-hierarchy model access."""
        return self._jittered(self.config.memory_model_cost)

    def message(self, locality: Locality, size_bytes: int) -> float:
        """Host *CPU* cost of one one-way message (consumes the core)."""
        del size_bytes  # copies are cheap; the wire time is latency
        return self._jittered(self._message_cost[locality])

    def message_latency(self, locality: Locality,
                        size_bytes: int) -> float:
        """Wire/stack latency: the sender-side thread is blocked, but
        its host core is free to run other tile threads meanwhile."""
        latency = self._message_latency[locality]
        if locality is Locality.CROSS_MACHINE:
            latency += size_bytes * self.config.inter_machine_byte_cost
        return self._jittered(latency)

    def process_startup(self, num_processes: int) -> float:
        """Sequential start-up cost for all host processes.

        Initialization "must be done sequentially for each process"
        (paper §4.2), which bounds scaling at high machine counts.
        """
        return num_processes * self.config.process_startup_cost

    def sleep_quantum(self) -> float:
        """Granularity of a LaxP2P host sleep (timer resolution)."""
        return 100e-6
