"""The simulation engine: multiplexes tile threads onto host cores.

Graphite runs one host thread per simulated tile, distributed over the
processes of the cluster, and lets the host OS schedule them (paper §2).
This module substitutes a deterministic scheduler for the host OS: each
simulated host core owns a run queue of tile threads (placement from
:class:`~repro.host.cluster.ClusterLayout`); the engine repeatedly picks
the host core with the least accumulated host time — i.e. the one whose
next event happens earliest in real time — and runs one *quantum* of its
next thread.  Host costs of every simulation event are charged through
:meth:`Scheduler.charge`; wall-clock time falls out as the parallel
makespan over cores.

Seeded jitter in the cost model plus quantum-granular interleaving give
run-to-run variation, standing in for OS noise on the paper's cluster —
the phenomenon behind the CoV columns of Table 3.
"""

from __future__ import annotations

import abc
import enum
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple, TYPE_CHECKING

from repro.common import slot_state
from repro.common.errors import DeadlockError, SimulationError
from repro.common.ids import TileId
from repro.common.stats import StatGroup
from repro.host.cluster import ClusterLayout
from repro.host.costmodel import HostCostModel

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sync.model import SynchronizationModel
    from repro.telemetry.bus import TelemetryBus


class ThreadState(enum.Enum):
    """Lifecycle of a tile thread inside the scheduler."""

    RUNNABLE = "runnable"
    RUNNING = "running"
    #: Blocked on application synchronization (futex, recv, join); wakes
    #: via :meth:`Scheduler.wake`.
    BLOCKED = "blocked"
    #: Asleep in host time (LaxP2P slack enforcement); wakes when its
    #: core's clock reaches ``wake_host_time``.
    SLEEPING = "sleeping"
    #: Waiting on the LaxBarrier quantum barrier.
    BARRIER_WAIT = "barrier_wait"
    DONE = "done"


class QuantumStatus(enum.Enum):
    """Why a thread's quantum ended."""

    RAN = "ran"          # budget exhausted; still runnable
    BLOCKED = "blocked"  # thread blocked on application sync
    DONE = "done"        # thread finished its program


@dataclass
class QuantumResult:
    """Outcome of one quantum of execution."""

    status: QuantumStatus
    instructions: int = 0


class ThreadTask(abc.ABC):
    """What the scheduler runs: one tile thread's execution driver."""

    __slots__ = ()

    #: Tile this thread is mapped to.
    tile: TileId

    @abc.abstractmethod
    def run(self, budget_instructions: int,
            cycle_limit: Optional[int] = None) -> QuantumResult:
        """Execute until the budget, the cycle limit, a block, or the end.

        ``cycle_limit`` is an absolute local-clock bound used by sync
        models (a LaxBarrier thread must stop at its epoch boundary).
        """

    @property
    @abc.abstractmethod
    def cycles(self) -> int:
        """Current local clock of this thread's tile."""


class ScheduledThread:
    """Scheduler bookkeeping wrapped around a task."""

    __slots__ = ("task", "state", "ready_host_time", "wake_host_time",
                 "quanta")

    def __init__(self, task: ThreadTask,
                 ready_host_time: float = 0.0) -> None:
        self.task = task
        self.state = ThreadState.RUNNABLE
        #: Earliest host time this thread may next run (set on wake).
        self.ready_host_time = ready_host_time
        #: Host time a SLEEPING thread wakes (LaxP2P).
        self.wake_host_time = 0.0
        self.quanta = 0

    @property
    def tile(self) -> TileId:
        return self.task.tile


@dataclass
class SchedulerReport:
    """Summary of one engine run."""

    wall_clock_seconds: float
    core_busy_seconds: Dict[int, float]
    total_quanta: int
    total_instructions: int
    #: Sum of simulated cycles across all threads at completion.
    total_simulated_cycles: int

    @property
    def busy_seconds(self) -> float:
        return sum(self.core_busy_seconds.values())


#: The quantum boundary.  After every scheduler turn — the one point
#: where no thread is mid-op anywhere — the armed stages fire in this
#: order, each on its own period in turns (DESIGN.md §3 tabulates who
#: arms what).  The samplers come first, they only read; ``sample``
#: precedes ``ckpt`` so a snapshot carries the execution mode and
#: measurement window the turn settled on; ``net`` (mp membership)
#: follows ``ckpt`` so a snapshot never sees half a migration;
#: ``preempt`` (serve) is last, so it checkpoints and unwinds only
#: once every other stage has run.  Stages are host-side wiring, not
#: simulation state: the simulator's ``_arm_boundary`` installs them
#: on a fresh build and again after a restore, and they are never
#: pickled.
STAGE_ORDER = ("skew", "metrics", "sample", "ckpt", "net", "preempt")

Stage = Callable[["Scheduler"], None]


class Scheduler:
    """Runs tile threads on simulated host cores to completion."""

    __slots__ = ("layout", "cost_model", "sync_model", "stats",
                 "quantum_instructions", "_rng", "threads", "core_time",
                 "core_busy", "_core_queues", "_quantum_charge",
                 "_quantum_blocking", "functional", "_running",
                 "_running_core", "_turns", "_total_instructions",
                 "_stages", "_tele_quantum")

    def __init__(self, layout: ClusterLayout, cost_model: HostCostModel,
                 sync_model: "SynchronizationModel",
                 stats: StatGroup,
                 quantum_instructions: int = 2000,
                 rng=None,
                 telemetry: Optional["TelemetryBus"] = None) -> None:
        self.layout = layout
        self.cost_model = cost_model
        cost_model.scheduler = self  # its charges land in our quanta
        self.sync_model = sync_model
        self.stats = stats
        self.quantum_instructions = quantum_instructions
        #: Optional RNG: randomizes dispatch quantum lengths, modelling
        #: host OS scheduling variability (the run-to-run nondeterminism
        #: behind the paper's CoV measurements).
        self._rng = rng
        self.threads: Dict[TileId, ScheduledThread] = {}
        num_cores = layout.total_cores
        #: Accumulated host time per core (the makespan components).
        self.core_time: List[float] = [0.0] * num_cores
        self.core_busy: List[float] = [0.0] * num_cores
        self._core_queues: List[List[ScheduledThread]] = [
            [] for _ in range(num_cores)]
        self._quantum_charge = 0.0
        self._quantum_blocking = 0.0
        #: Functional fast-forward (:mod:`repro.sample`): bypass the
        #: sync model's pacing (no cycle limits, no quantum-end
        #: arrivals) while keeping the thread lifecycle callbacks.
        #: Flipped only between quanta by the sample controller.
        self.functional = False
        self._running: Optional[ScheduledThread] = None
        self._running_core: int = 0
        self._turns = 0
        self._total_instructions = 0
        #: Armed boundary stages, ``(name, period, callable)`` kept in
        #: :data:`STAGE_ORDER`.
        self._stages: List[Tuple[str, int, Stage]] = []
        self._tele_quantum = None
        if telemetry is not None:
            from repro.telemetry.events import EventCategory
            self._tele_quantum = telemetry.channel(EventCategory.QUANTUM)
        sync_model.attach(self)

    # -- thread management ----------------------------------------------------

    def add_thread(self, task: ThreadTask,
                   start_host_time: float = 0.0) -> ScheduledThread:
        """Register a new tile thread (initial main or a later spawn)."""
        if task.tile in self.threads and \
                self.threads[task.tile].state is not ThreadState.DONE:
            raise SimulationError(
                f"tile {int(task.tile)} already has a live thread")
        thread = ScheduledThread(task=task, ready_host_time=start_host_time)
        self.threads[task.tile] = thread
        core = int(self.layout.core_of_tile(task.tile))
        self._core_queues[core].append(thread)
        self.sync_model.on_thread_added(thread)
        return thread

    # -- host-time plumbing ---------------------------------------------------

    def charge(self, seconds: float) -> None:
        """Charge host time to the quantum currently executing.

        Outside a quantum (e.g. during set-up) the charge is folded
        into core 0's time.  The event codes logged before it are
        priced first (:meth:`HostCostModel.settle`), as they are
        wherever host time is read: they were made first.
        """
        if self.cost_model.codes:
            self.cost_model.settle()
        if seconds < 0:
            raise SimulationError("cannot charge negative host time")
        if self._running is not None:
            self._quantum_charge += seconds
        else:
            self.core_time[0] += seconds
            self.core_busy[0] += seconds

    def charge_blocking(self, seconds: float) -> None:
        """Charge host time the running thread spends *blocked*.

        Wire latency of remote messages blocks the waiting host thread
        without occupying its core: the core is free to run other tile
        threads.  Accumulated blocking defers the thread's next
        dispatch instead of advancing the core clock — the overlap that
        lets oversubscribed host cores hide communication stalls.
        """
        if self.cost_model.codes:
            self.cost_model.settle()
        if seconds < 0:
            raise SimulationError("cannot charge negative blocking time")
        if self._running is not None:
            self._quantum_blocking += seconds
        else:
            self.core_time[0] += seconds

    def charge_core_of(self, thread: ScheduledThread,
                       seconds: float) -> None:
        """Charge host time directly to a thread's core.

        Used by sync models for costs incurred outside any quantum
        (barrier gather/release messages, P2P check round trips).
        """
        core = int(self.layout.core_of_tile(thread.tile))
        self.core_time[core] += seconds
        self.core_busy[core] += seconds

    def current_host_time(self) -> float:
        """Best estimate of 'now' in host time at the running core."""
        if self.cost_model.codes:
            self.cost_model.settle()
        if self._running is not None:
            return self.core_time[self._running_core] + self._quantum_charge
        return max(self.core_time) if self.core_time else 0.0

    # -- blocking and waking ----------------------------------------------------

    def wake(self, tile: TileId) -> None:
        """Make a blocked/parked thread runnable again.

        The woken thread may not run before the waker's current host
        time (the wake travels as a message whose transfer cost has
        already been charged to the waker).
        """
        thread = self.threads.get(tile)
        if thread is None:
            raise SimulationError(f"wake of unknown tile {int(tile)}")
        if thread.state in (ThreadState.BLOCKED, ThreadState.SLEEPING,
                            ThreadState.BARRIER_WAIT):
            thread.state = ThreadState.RUNNABLE
            thread.ready_host_time = max(thread.ready_host_time,
                                         self.current_host_time())

    def sleep_thread(self, thread: ScheduledThread,
                     host_seconds: float) -> None:
        """Put a runnable thread to sleep in host time (LaxP2P)."""
        if thread.state not in (ThreadState.RUNNABLE, ThreadState.RUNNING):
            return
        thread.state = ThreadState.SLEEPING
        thread.wake_host_time = (self.current_host_time()
                                 + max(host_seconds, 0.0))

    def park_for_barrier(self, thread: ScheduledThread) -> None:
        """Park a thread on the synchronization barrier (LaxBarrier)."""
        thread.state = ThreadState.BARRIER_WAIT

    # -- quantum-boundary stages ----------------------------------------------

    def set_stage(self, name: str, period: int, stage: Stage) -> None:
        """Arm (or replace) the boundary stage ``name``.

        ``stage(self)`` then runs after every ``period``-th turn, at
        the position :data:`STAGE_ORDER` gives its name.
        """
        if name not in STAGE_ORDER:
            raise SimulationError(f"unknown boundary stage {name!r}")
        if period < 1:
            raise SimulationError("boundary stage period must be >= 1")
        stages = [s for s in self._stages if s[0] != name]
        stages.append((name, period, stage))
        stages.sort(key=lambda s: STAGE_ORDER.index(s[0]))
        self._stages = stages

    def stage_names(self) -> List[str]:
        """Names of the armed stages, in firing order."""
        return [name for name, _period, _stage in self._stages]

    def disarm_stages(self) -> None:
        """Drop every stage's callable, keeping names and periods, once
        the run is over: the callables are the simulator's bound
        methods, and a finished run must not hold it in a cycle."""
        self._stages = [(name, period, None)
                        for name, period, _stage in self._stages]

    def __getstate__(self) -> tuple:
        state = slot_state(self)
        state["_stages"] = []
        return None, state  # (no __dict__, slots): default restore

    @property
    def turns(self) -> int:
        """Completed scheduler turns (quanta) so far — the checkpoint
        subsystem's notion of simulation position."""
        return self._turns

    @property
    def instructions_retired(self) -> int:
        """Target instructions retired across all threads so far.

        The sample controller reads this (with :meth:`thread_clocks`)
        at measurement-window edges to compute per-window CPI; it is
        identical on both backends because QUANTUM_DONE carries the
        same instruction counts the in-process engine produces."""
        return self._total_instructions

    def thread_clocks(self) -> List[int]:
        """Local clocks of all live threads (for skew measurement)."""
        return [t.task.cycles for t in self.threads.values()
                if t.state is not ThreadState.DONE]

    def total_cycles(self) -> int:
        """Sum of every thread's clock, finished threads included.

        Finished threads' clocks are frozen, so differencing this at
        two points measures exactly the cycles live threads progressed
        in between — the sample controller's window metric, robust to
        threads finishing mid-window."""
        return sum(t.task.cycles for t in self.threads.values())

    def active_thread_clocks(self) -> List[int]:
        """Clocks of threads that are actually progressing.

        A thread blocked on application synchronization has a stale
        clock — it will be forwarded to the wake event's timestamp — so
        including it in a skew measurement reports the *wait*, not the
        synchronization model's behaviour.
        """
        return [t.task.cycles for t in self.threads.values()
                if t.state in (ThreadState.RUNNABLE, ThreadState.RUNNING,
                               ThreadState.SLEEPING,
                               ThreadState.BARRIER_WAIT)]

    # -- the main loop -----------------------------------------------------------

    def _dispatchable(self, thread: ScheduledThread, now: float) -> bool:
        if thread.state is ThreadState.RUNNABLE:
            return True
        if thread.state is ThreadState.SLEEPING:
            return thread.wake_host_time <= now
        return False

    def _pick_core(self) -> Optional[int]:
        """Core to advance next: least host time among cores with work.

        A core whose only work is a sleeping or not-yet-ready thread is
        eligible — it will fast-forward its clock — but a core with an
        immediately dispatchable thread at an earlier effective time
        wins.
        """
        best_core = None
        best_time = None
        for core, queue in enumerate(self._core_queues):
            earliest = None
            for thread in queue:
                if thread.state is ThreadState.RUNNABLE:
                    t = max(self.core_time[core], thread.ready_host_time)
                elif thread.state is ThreadState.SLEEPING:
                    t = max(self.core_time[core], thread.wake_host_time)
                else:
                    continue
                if earliest is None or t < earliest:
                    earliest = t
            if earliest is None:
                continue
            if best_time is None or earliest < best_time:
                best_time = earliest
                best_core = core
        return best_core

    def _next_thread(self, core: int) -> Optional[ScheduledThread]:
        """Round-robin over the core's dispatchable threads."""
        queue = self._core_queues[core]
        now = self.core_time[core]
        # First preference: threads ready right now, in queue order.
        for i, thread in enumerate(queue):
            if self._dispatchable(thread, now):
                queue.append(queue.pop(i))
                return thread
        # Otherwise the thread that becomes ready soonest.
        best = None
        best_time = None
        for thread in queue:
            if thread.state is ThreadState.RUNNABLE:
                t = thread.ready_host_time
            elif thread.state is ThreadState.SLEEPING:
                t = thread.wake_host_time
            else:
                continue
            if best_time is None or t < best_time:
                best_time = t
                best = thread
        if best is not None:
            queue.remove(best)
            queue.append(best)
        return best

    def run(self, max_turns: Optional[int] = None) -> SchedulerReport:
        """Drive all threads to completion; returns the run report."""
        while True:
            if all(t.state is ThreadState.DONE
                   for t in self.threads.values()):
                break
            core = self._pick_core()
            if core is None:
                # Either the barrier can be released (progress resumes)
                # or this raises DeadlockError.
                self._diagnose_stall()
                continue
            thread = self._next_thread(core)
            assert thread is not None
            self._run_quantum(core, thread)
            self._turns += 1
            for _name, period, stage in self._stages:
                if self._turns % period == 0:
                    stage(self)
            if max_turns is not None and self._turns >= max_turns:
                raise SimulationError(
                    f"scheduler exceeded {max_turns} turns; "
                    "likely livelock in the simulated application")
        total_cycles = sum(t.task.cycles for t in self.threads.values())
        return SchedulerReport(
            wall_clock_seconds=max(self.core_time) if self.core_time else 0.0,
            core_busy_seconds={i: b for i, b in enumerate(self.core_busy)},
            total_quanta=self._turns,
            total_instructions=self._total_instructions,
            total_simulated_cycles=total_cycles,
        )

    def _run_quantum(self, core: int, thread: ScheduledThread) -> None:
        # Fast-forward the core past sleep/ready gaps (idle time).
        start = self.core_time[core]
        if thread.state is ThreadState.SLEEPING:
            start = max(start, thread.wake_host_time)
            thread.state = ThreadState.RUNNABLE
            self.sync_model.on_thread_woken(thread)
        start = max(start, thread.ready_host_time)
        self.core_time[core] = start

        thread.state = ThreadState.RUNNING
        self._running = thread
        self._running_core = core
        self._quantum_charge = 0.0
        self._quantum_blocking = 0.0
        # Magic sync under fast-forward: no epoch/slack pacing.  The
        # lifecycle callbacks (done/blocked/woken) still fire so the
        # sync model's membership stays correct across mode switches.
        cycle_limit = (None if self.functional
                       else self.sync_model.cycle_limit(thread))
        budget = self.quantum_instructions
        if self._rng is not None:
            # OS-like dispatch variability: quantum in [0.75x, 1.25x).
            budget = max(int(budget * (0.75 + 0.5 * self._rng.random())), 1)
        cycles_before = thread.task.cycles if self._tele_quantum else 0
        try:
            result = thread.task.run(budget, cycle_limit)
            self.cost_model.settle()  # the quantum's last events
        finally:
            self._running = None
        if self._tele_quantum is not None:
            self._tele_quantum.emit(
                "quantum", int(thread.tile), cycles_before,
                {"cycles": thread.task.cycles,
                 "instructions": result.instructions,
                 "status": result.status.value})
        self.core_time[core] = start + self._quantum_charge
        self.core_busy[core] += self._quantum_charge
        if self._quantum_blocking > 0.0:
            # The thread was blocked on the wire for this long; it may
            # not run again before then, but the core stays available.
            thread.ready_host_time = max(
                thread.ready_host_time,
                self.core_time[core] + self._quantum_blocking)
        self._total_instructions += result.instructions
        thread.quanta += 1

        if result.status is QuantumStatus.DONE:
            thread.state = ThreadState.DONE
            self.sync_model.on_thread_done(thread)
        elif result.status is QuantumStatus.BLOCKED:
            # The blocking subsystem may already have woken us (e.g. the
            # wake message raced ahead); only block if still RUNNING.
            if thread.state is ThreadState.RUNNING:
                thread.state = ThreadState.BLOCKED
            self.sync_model.on_thread_blocked(thread)
        else:
            if thread.state is ThreadState.RUNNING:
                thread.state = ThreadState.RUNNABLE
            if not self.functional:
                self.sync_model.on_quantum_end(thread)

    def _diagnose_stall(self) -> None:
        states = {int(t.tile): t.state.value for t in self.threads.values()
                  if t.state is not ThreadState.DONE}
        barrier_waiters = [t for t in self.threads.values()
                           if t.state is ThreadState.BARRIER_WAIT]
        if barrier_waiters and self.sync_model.release_if_stalled():
            return
        raise DeadlockError(
            f"no dispatchable thread; remaining thread states: {states}")
