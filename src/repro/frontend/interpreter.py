"""The interpreter: executes one thread's op stream against the models.

This is the meeting point of the whole back-end (Figure 2b): each op a
program yields is dispatched to the core performance model (timing),
the memory controller (functional bytes + timing), the network fabric
(messaging), or the MCP (synchronization, threads, system calls), and
the host cost of every event is charged to the scheduler.

Blocking ops return a ``BLOCKED`` quantum; the scheduler re-runs the
interpreter after a wake-up and the *same op object* is retried (its
mutable progress flags prevent duplicated side effects).  A wake-up
carries the waker's simulated timestamp, which forwards this tile's
clock — the lax synchronization rule.

Checkpointing: the program generator itself cannot pickle, so when
checkpoints are enabled (``config.ckpt.dir``) the interpreter records
every value passed to ``generator.send`` and a restore re-creates the
generator from the program reference and replays that log — pure
generator stepping, with every replayed op discarded (the models
already hold the post-op state from the snapshot).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.common import slot_state
from repro.common.errors import CheckpointError, SimulationError
from repro.common.ids import ThreadId, TileId
from repro.core.instruction import (
    BranchInstruction,
    Instruction,
    PseudoInstruction,
    PseudoKind,
)
from repro.core.isa import InstructionClass
from repro.core.factory import create_core_model
from repro.core.perf_model import UnitCostCoreModel
from repro.frontend import ops
from repro.frontend.api import ThreadContext
from repro.host.scheduler import QuantumResult, QuantumStatus, ThreadTask
from repro.transport.message import MessageKind

# Simulated-cycle costs of runtime services (the user-level library and
# trap handling around the raw system events).
SEND_CYCLES = 20
RECV_CYCLES = 20
SPAWN_CYCLES = 2000
JOIN_CYCLES = 100
MALLOC_CYCLES = 60
FREE_CYCLES = 40
LOCK_ALU_CYCLES = 4
SYSCALL_TRAP_CYCLES = 200

#: Synthetic code footprint walked by instruction fetches, per program
#: (the hot loop of a kernel; fits comfortably in the L1I).
CODE_FOOTPRINT_BYTES = 1024

#: Sentinel: the current op blocked; retry it after a wake-up.
_BLOCK = object()

#: Wire overhead of a user message (header bytes).
USER_MESSAGE_HEADER = 8

_LOAD, _STORE = InstructionClass.LOAD, InstructionClass.STORE


class ThreadInterpreter(ThreadTask):
    """Drives one application thread (generator) to completion."""

    __slots__ = ("kernel", "tile", "program", "args", "program_ref",
                 "core", "_sanitizers", "memory", "netif", "context",
                 "generator", "start_clock", "_send_value", "_pending_op",
                 "_wake_time", "_finished", "result", "_fetch_cursor",
                 "_code_base", "_model_ifetch", "_l1i_hit_latency",
                 "_ckpt_log", "_log_values")

    def __init__(self, kernel: Any, tile: TileId, program: Any,
                 args: tuple, start_clock: int, code_base: int) -> None:
        self.kernel = kernel
        self.tile = tile
        self.program = program
        self.args = tuple(args)
        #: Shippable identity of ``program`` (a ``WorkloadRef`` /
        #: ``PickledProgram``), set by the spawner when known; used to
        #: re-create the generator after a checkpoint restore.
        self.program_ref: Any = None
        stats = kernel.stats.child(f"thread{int(tile)}")
        core_config = kernel.config.core_config_for(int(tile))
        channel = None
        tele_bus = getattr(kernel, "telemetry", None)
        if tele_bus is not None:
            from repro.telemetry.events import EventCategory
            channel = tele_bus.channel(EventCategory.SYNC)
        self.core = create_core_model(core_config, stats.child("core"),
                                      telemetry=channel, tile=int(tile))
        #: Runtime sanitizers (``--sanitize``), or ``None``.
        self._sanitizers = getattr(kernel, "sanitizers", None)
        self.core.clock.forward_to(start_clock)
        self.memory = kernel.controllers[int(tile)]
        self.netif = kernel.interface(tile)
        self.context = ThreadContext(ThreadId(int(tile)),
                                     kernel.config.num_tiles)
        self.generator = program(self.context, *args)
        #: Clock at which this thread began (its spawn timestamp).
        self.start_clock = start_clock
        self._send_value: Any = None
        self._pending_op: Any = None
        self._wake_time: Optional[int] = None
        self._finished = False
        #: Value returned by the program generator, if any.
        self.result: Any = None
        self._fetch_cursor = 0
        self._code_base = code_base
        self._model_ifetch = kernel.config.memory.l1i.enabled
        self._l1i_hit_latency = kernel.config.memory.l1i.access_latency
        #: Replay log for checkpoint/restore: every value handed to
        #: ``generator.send`` since genesis, or ``None`` when the run
        #: is not snapshottable.  Cleared when the thread finishes.
        #: Shard migration (:mod:`repro.net`) rides the same log — a
        #: migrated interpreter is rebuilt by replay on the adopting
        #: worker — so migration-capable runs keep it too.
        ckpt = getattr(kernel.config, "ckpt", None)
        distrib = getattr(kernel.config, "distrib", None)
        snapshottable = (ckpt is not None and ckpt.enabled) or (
            distrib is not None
            and getattr(distrib, "migration_capable", None) is not None
            and distrib.migration_capable())
        self._ckpt_log: Optional[List[Any]] = (
            [] if snapshottable else None)
        #: Each distinct ``bytes`` value the log holds, as the one
        #: object every entry equal to it shares: a load result is
        #: logged once per load but takes few values (48-100 % of the
        #: entries repeat on every kernel, DESIGN.md §3), and pickle
        #: writes a repeat as a reference.  Host-side: never pickled,
        #: rebuilt from the restored log.
        self._log_values: Optional[Dict[bytes, bytes]] = (
            {} if snapshottable else None)

    # -- ThreadTask interface ------------------------------------------------------

    @property
    def cycles(self) -> int:
        return self.core.clock.cycles

    def notify_wake(self, timestamp: int) -> None:
        """Forward the clock to a wake event's timestamp.

        The forward happens eagerly (the wake IS the synchronization
        event), and the timestamp is also remembered so the retried op
        charges its sync-wait statistics on resume.
        """
        self.core.clock.forward_to(timestamp)
        if self._sanitizers is not None:
            self._sanitizers.on_interaction(int(self.tile), timestamp,
                                            self.core.cycles)
        if self._wake_time is None or timestamp > self._wake_time:
            self._wake_time = timestamp

    def run(self, budget_instructions: int,
            cycle_limit: Optional[int] = None) -> QuantumResult:
        if self._finished:
            raise SimulationError("running a finished thread")
        # The mode is the quantum's (the scheduler only flips it between
        # quanta, :mod:`repro.sample`).  Fast-forward runs the same
        # handlers against the unit-cost core model and fetches no
        # instructions; host charges and system-network legs are
        # skipped where they are made, by the kernel and the fabric.
        functional = self.kernel.exec_functional
        core = UnitCostCoreModel(self.core) if functional else self.core
        self._model_ifetch = (not functional
                              and self.kernel.config.memory.l1i.enabled)
        handlers, clock, log = self._HANDLERS, core.clock, self._ckpt_log
        intern = None if log is None else self._log_values.setdefault
        send, compute = self.generator.send, ops.Compute
        executed = 0
        while executed < budget_instructions:
            if cycle_limit is not None and clock.cycles >= cycle_limit:
                return QuantumResult(QuantumStatus.RAN, executed)
            if self._pending_op is not None:
                op = self._pending_op
                self._consume_wake(core)
            else:
                if log is not None:
                    value = self._send_value
                    if type(value) is bytes:
                        value = intern(value, value)
                    log.append(value)
                try:
                    op = send(self._send_value)
                except StopIteration as stop:
                    self.result = stop.value
                    return self._finish(core, executed)
                self._send_value = None
            kind = type(op)
            handler = handlers.get(kind)
            if handler is None:
                raise SimulationError(f"unknown front-end op {op!r}")
            result = handler(self, op, core)
            if result is _BLOCK:
                self._pending_op = op
                return QuantumResult(QuantumStatus.BLOCKED, executed)
            self._pending_op = None
            self._send_value = result
            executed += op.count if kind is compute else 1
        return QuantumResult(QuantumStatus.RAN, executed)

    def _finish(self, core: Any, executed: int) -> QuantumResult:
        self._finished = True
        # A finished thread never replays; drop the log so snapshots
        # of long runs do not keep every completed thread's history.
        self._ckpt_log = self._log_values = None
        # Retire everything in flight before reporting the final clock.
        core.drain()
        self.kernel.thread_finished(self.tile, core.cycles)
        return QuantumResult(QuantumStatus.DONE, executed)

    # -- checkpoint support ---------------------------------------------------------

    def __getstate__(self) -> dict:
        """Pickle everything except the generator (unpicklable).

        The program is replaced by its shippable reference so the
        snapshot never embeds a workload-builder closure; restore
        resolves it back and :meth:`rebuild_generator` replays the
        send log to reconstruct the generator's position.
        """
        state = slot_state(self)
        state["generator"] = None
        del state["_log_values"]
        ref = self.program_ref
        if ref is None:
            from repro.distrib.wire import make_program_ref
            ref = make_program_ref(self.program)
        state["program"] = ref
        state["program_ref"] = ref
        return state

    def __setstate__(self, state: dict) -> None:
        for name, value in state.items():
            setattr(self, name, value)
        log = self._ckpt_log
        self._log_values = None if log is None else {
            value: value for value in log if type(value) is bytes}
        if hasattr(self.program, "resolve"):
            self.program = self.program.resolve()

    def rebuild_generator(self) -> None:
        """Reconstruct the generator after a restore by replaying.

        Re-creates the generator from the resolved program and feeds
        it the recorded send values; every op it yields during replay
        is discarded — the models already hold the post-op state from
        the snapshot, and a blocked thread retries its pickled
        ``_pending_op`` (which carries the mutated progress flags),
        not the freshly-yielded duplicate.
        """
        if self._finished or self.generator is not None:
            return
        if self._ckpt_log is None:
            raise CheckpointError(
                f"tile {int(self.tile)}: no replay log in snapshot")
        generator = self.program(self.context, *self.args)
        for index, value in enumerate(self._ckpt_log):
            try:
                generator.send(value)
            except StopIteration:
                raise CheckpointError(
                    f"tile {int(self.tile)}: replay ended after "
                    f"{index} of {len(self._ckpt_log)} sends — the "
                    f"program is not deterministic") from None
        self.generator = generator

    def _consume_wake(self, core: Any) -> None:
        if self._wake_time is not None:
            core.execute_pseudo(PseudoInstruction(
                PseudoKind.SYNC, time=self._wake_time))
            self._wake_time = None

    # -- op dispatch ------------------------------------------------------------------

    def _fetch(self, core: Any) -> None:
        """Model the instruction fetch for one op (one basic block)
        that makes no data access; ``_op_load`` / ``_op_store`` spell
        the same walk out inline: a helper call per op is measurable
        there."""
        if not self._model_ifetch:
            return
        pc = self._code_base + self._fetch_cursor
        self._fetch_cursor = (self._fetch_cursor + 64) % CODE_FOOTPRINT_BYTES
        latency = self.memory.fetch(pc, core.clock.cycles)
        if latency > self._l1i_hit_latency:
            # Only the miss portion stalls; hit latency is pipelined.
            core.clock.advance(latency - self._l1i_hit_latency)

    # -- computational ops ----------------------------------------------------------------

    def _op_compute(self, op: ops.Compute, core: Any) -> None:
        self._fetch(core)
        core.execute(op)  # a klass and a count: no record to build
        self.kernel.charge_instructions(op.count)

    def _op_branch(self, op: ops.Branch, core: Any) -> None:
        self._fetch(core)
        pc = op.pc if op.pc is not None else self._code_base
        core.execute_branch(BranchInstruction(pc, op.taken))
        self.kernel.charge_instructions(1)

    # -- memory ops ------------------------------------------------------------------------

    def _op_load(self, op: ops.Load, core: Any) -> bytes:
        clock = core.clock
        if self._model_ifetch:
            pc = self._code_base + self._fetch_cursor
            self._fetch_cursor = (
                self._fetch_cursor + 64) % CODE_FOOTPRINT_BYTES
            fetched = self.memory.fetch(pc, clock.cycles)
            if fetched > self._l1i_hit_latency:
                clock.advance(fetched - self._l1i_hit_latency)
        address, size = op.address, op.size
        data, latency = self.memory.load(address, size, clock.cycles)
        core.execute_memory(_LOAD, address, size, latency)
        self.kernel.charge_instructions(1)
        return data

    def _op_store(self, op: ops.Store, core: Any) -> None:
        clock = core.clock
        if self._model_ifetch:
            pc = self._code_base + self._fetch_cursor
            self._fetch_cursor = (
                self._fetch_cursor + 64) % CODE_FOOTPRINT_BYTES
            fetched = self.memory.fetch(pc, clock.cycles)
            if fetched > self._l1i_hit_latency:
                clock.advance(fetched - self._l1i_hit_latency)
        address, data = op.address, op.data
        latency = self.memory.store(address, data, clock.cycles)
        core.execute_memory(_STORE, address, len(data), latency)
        self.kernel.charge_instructions(1)

    def _op_malloc(self, op: ops.Malloc, core: Any) -> int:
        core.clock.advance(MALLOC_CYCLES)
        self.kernel.charge_trap()
        return self.kernel.malloc(op.size, op.align)

    def _op_free(self, op: ops.Free, core: Any) -> None:
        core.clock.advance(FREE_CYCLES)
        self.kernel.charge_trap()
        self.kernel.free(op.address)

    # -- messaging -----------------------------------------------------------------------------

    def _op_send(self, op: ops.Send, core: Any) -> None:
        core.execute(Instruction(InstructionClass.GENERIC, SEND_CYCLES))
        dst_tile = TileId(int(op.dst))
        self.netif.send(dst_tile, payload=(int(self.tile), op.payload),
                        kind=MessageKind.USER,
                        size_bytes=len(op.payload) + USER_MESSAGE_HEADER,
                        timestamp=core.cycles, tag=op.tag)
        # The receiver may be blocked in Recv; let it re-check.
        self.kernel.wake_scheduler(dst_tile)

    def _op_recv(self, op: ops.Recv, core: Any) -> Any:
        src_tile = TileId(int(op.src)) if op.src is not None else None
        message = self.netif.poll_match(MessageKind.USER, src=src_tile,
                                        tag=op.tag)
        if message is None:
            return _BLOCK
        # "Message receive pseudo-instruction" (paper §3.1): the clock
        # forwards to the message's arrival time, then pays recv cost.
        core.execute_pseudo(PseudoInstruction(
            PseudoKind.MESSAGE_RECEIVE, time=message.arrival_time,
            cost=RECV_CYCLES))
        if self._sanitizers is not None:
            self._sanitizers.on_interaction(
                int(self.tile), message.arrival_time, core.cycles)
        sender, payload = message.payload
        return (ThreadId(sender), payload)

    # -- synchronization ---------------------------------------------------------------------------

    def _rmw_lock_word(self, address: int, core: Any) -> int:
        """Atomic RMW on a lock word: the coherence traffic of a futex.

        Returns the value read.  The word is acquired exclusively (a
        cmpxchg needs ownership) so contended locks really ping-pong.
        """
        data, load_latency = self.memory.load(address, 8, core.cycles)
        core.execute_memory(_LOAD, address, 8, load_latency)
        value = int.from_bytes(data, "little")
        store_latency = self.memory.store(
            address, data, core.cycles)  # ownership acquisition
        core.execute_memory(_STORE, address, 8, store_latency)
        core.execute(Instruction(InstructionClass.IALU, LOCK_ALU_CYCLES))
        self.kernel.charge_instructions(4)
        return value

    def _op_lock(self, op: ops.Lock, core: Any) -> Any:
        value = self._rmw_lock_word(op.address, core)
        if value == 0:
            holder = int(self.tile) + 1  # nonzero == locked
            latency = self.memory.store(
                op.address, holder.to_bytes(8, "little"), core.cycles)
            core.execute_memory(_STORE, op.address, 8, latency)
            return None
        # Contended: forward to the MCP futex (system network round trip)
        # and sleep until an unlock wakes us.
        self._system_round_trip(core)
        core.clock.advance(SYSCALL_TRAP_CYCLES)
        self.kernel.futex_wait(op.address, self.tile)
        return _BLOCK

    def _op_unlock(self, op: ops.Unlock, core: Any) -> None:
        latency = self.memory.store(op.address, bytes(8), core.cycles)
        core.execute_memory(_STORE, op.address, 8, latency)
        self.kernel.charge_instructions(2)
        woken = self.kernel.futex_wake(op.address, 1, core.cycles)
        if woken:
            self._system_round_trip(core)

    def _op_barrier(self, op: ops.BarrierWait, core: Any) -> Any:
        if not op.registered:
            self._rmw_lock_word(op.address, core)
            self._system_round_trip(core)
            release = self.kernel.barrier_arrive(
                op.address, op.participants, self.tile, core.cycles)
            op.registered = True
            if release is None:
                return _BLOCK
            op.registered = False
            core.execute_pseudo(PseudoInstruction(
                PseudoKind.SYNC, time=release))
            return None
        # Retried after a wake: released unless we are still registered.
        if self.kernel.barrier_is_waiting(op.address, self.tile):
            return _BLOCK
        op.registered = False
        return None

    # -- threads -----------------------------------------------------------------------------------

    def _op_spawn(self, op: ops.Spawn, core: Any) -> ThreadId:
        self._system_round_trip(core)
        core.clock.advance(SPAWN_CYCLES)
        return self.kernel.spawn_thread(op.program, op.args, self.tile,
                                        core.cycles)

    def _op_join(self, op: ops.Join, core: Any) -> Any:
        target = TileId(int(op.thread))
        if not op.registered:
            self._system_round_trip(core)
            core.clock.advance(JOIN_CYCLES)
            final = self.kernel.try_join(self.tile, target)
            op.registered = True
            if final is None:
                return _BLOCK
            op.registered = False
            core.execute_pseudo(PseudoInstruction(
                PseudoKind.SYNC, time=final))
            return None
        final = self.kernel.final_clock(target)
        if final is None:
            return _BLOCK  # spurious wake; child still running
        op.registered = False
        return None

    # -- system calls -----------------------------------------------------------------------------------

    def _op_syscall(self, op: ops.Syscall, core: Any) -> Any:
        self._system_round_trip(core)
        core.clock.advance(SYSCALL_TRAP_CYCLES)
        self.kernel.charge_trap()
        return self.kernel.syscall(op.name, op.args)

    # -- helpers -------------------------------------------------------------------------------------------

    def _system_round_trip(self, core: Any) -> None:
        """A control round trip to the MCP over the system network."""
        from repro.system.mcp import MCP_TILE
        clock = core.cycles
        out = self.kernel.fabric_transfer(self.tile, MCP_TILE,
                                          MessageKind.SYSTEM, 32, clock)
        self.kernel.fabric_transfer(MCP_TILE, self.tile,
                                    MessageKind.SYSTEM, 32, clock + out)

    _HANDLERS = {
        ops.Compute: _op_compute,
        ops.Branch: _op_branch,
        ops.Load: _op_load,
        ops.Store: _op_store,
        ops.Malloc: _op_malloc,
        ops.Free: _op_free,
        ops.Send: _op_send,
        ops.Recv: _op_recv,
        ops.Lock: _op_lock,
        ops.Unlock: _op_unlock,
        ops.BarrierWait: _op_barrier,
        ops.Spawn: _op_spawn,
        ops.Join: _op_join,
        ops.Syscall: _op_syscall,
    }
