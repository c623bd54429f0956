"""Worker process: executes the interpreters of one tile shard.

A worker is the mp backend's analogue of one Graphite target process:
it owns the tile threads striped onto it (paper §3.5) and *really*
executes their programs — the generators run here, op by op, through
unmodified :class:`~repro.frontend.interpreter.ThreadInterpreter`
instances and each tile's real memory controller, over L1s it owns
(:class:`~repro.memory.hierarchy.MirroredL1`): a hit never leaves the
process.  What the worker does **not** own is shared simulation state:
the L2s and all behind them, network models, MCP, allocator, host cost
model and scheduler all live in the coordinator, reached through
:class:`KernelProxy` — a stand-in for the kernel object whose local
pieces (config, per-thread stats, L1s, inbound message queues) are
worker resident and whose shared pieces are RPCs over the channel.

Determinism: the channel is FIFO and the coordinator runs exactly one
quantum anywhere at a time, so kernel calls reach the coordinator in
the same order the in-process backend would make them — including the
order in which the jittered cost model's RNG is consumed.  Host
charges are deferred: each appends one small int to a list (0 for a
memory access, 1 for a trap, ``n + 2`` for ``n`` instructions) that
crosses as one ``charges`` cast, and the coordinator prices them
(consuming RNG) when it arrives.  One-way casts (``charges``,
``store_data``, ``wake_scheduler``, ``thread_finished``) cost no frame
of their own: they ride the next KERNEL_CALL or the closing
QUANTUM_DONE and are applied, in order, ahead of it.  What the L2s do
to our L1s comes back as lazily, as notes in RUN_QUANTUM / KERNEL_REPLY.
"""

from __future__ import annotations

import pickle
import sys
import traceback
from typing import Any, List, Optional

from repro.common.config import SimulationConfig
from repro.common.ids import TileId
from repro.common.stats import StatGroup
from repro.distrib.errors import WireFormatError
from repro.distrib.shard import ShardQueues
from repro.distrib.wire import (
    FrameKind,
    HostStatsBatch,
    ShardCheckpoint,
    decode_frame,
    encode_frame,
    kernel_calls_base,
)
from repro.frontend.interpreter import ThreadInterpreter
from repro.memory.address import AddressSpace
from repro.memory.cache import CacheLine, LineState
from repro.memory.controller import MemoryController
from repro.memory.hierarchy import MirroredL1
from repro.profile.instrument import installed
from repro.profile.timers import HostProfiler, create_profiler
from repro.telemetry.aggregate import TelemetryBatch
from repro.telemetry.bus import create_bus
from repro.telemetry.events import EventCategory
from repro.transport.message import Message, MessageKind


class _RemoteL2:
    """``controller.engine`` in a worker: the coordinator-homed L2s, as
    the slice of ``CoherenceEngine`` a controller uses.  Its accesses —
    L1 misses and write upgrades — are the only memory RPCs there are."""

    classifier = None  # misses are classified where the L2s are
    __slots__ = ("_kernel", "config", "line_bytes", "space", "hierarchies")

    def __init__(self, kernel: "KernelProxy") -> None:
        self._kernel = kernel
        self.config = kernel.config.memory
        self.line_bytes = self.config.l2.line_bytes
        self.space = AddressSpace(kernel.config.num_tiles,
                                  self.line_bytes)
        self.hierarchies: dict = {}  # tile -> MirroredL1, once it ran

    def _line(self, address: int, reply: tuple) -> tuple:
        data, state, latency = reply
        return CacheLine(self.space.line_of(address), LineState(state),
                         bytearray(data)), latency

    def read_access(self, tile: TileId, address: int, size: int,
                    timestamp: int) -> tuple:
        return self._line(address, self._kernel.memory_read(
            tile, address, size, timestamp, True))

    def write_access(self, tile: TileId, address: int, size: int,
                     timestamp: int) -> tuple:
        return self._line(address, self._kernel.memory_write(
            tile, address, size, timestamp))

    def fetch_access(self, tile: TileId, pc: int, timestamp: int) -> int:
        return self._kernel.memory_read(tile, pc, 4, timestamp, False)[2]

    def forward_store(self, tile: TileId, address: int,
                      data: bytes) -> None:
        self._kernel.store_data(tile, address, data)


class _ControllerTable(dict):
    """``controllers[tile]``: the tile's real memory controller over its
    own L1s, built on first use — a worker models only tiles it runs."""

    def __init__(self, kernel: "KernelProxy") -> None:
        super().__init__()
        self._kernel = kernel

    def __missing__(self, tile: int) -> MemoryController:
        kernel = self._kernel
        kernel.engine.hierarchies[tile] = MirroredL1(
            kernel.engine.config,
            kernel.stats.child("memory").child(f"tile{tile}"))
        self[tile] = MemoryController(
            TileId(tile), kernel.engine, kernel.charge_memory_access,
            kernel.stats.child(f"mc{tile}"))
        return self[tile]


class _NetIfProxy:
    """Per-tile network endpoint: sends are RPCs, receives are local.

    Inbound queues are worker-owned (fed by DELIVER frames), so the
    receive path — the only transport operation on an interpreter's
    critical polling loop — never crosses the process boundary.
    """

    __slots__ = ("_kernel", "tile")

    def __init__(self, kernel: "KernelProxy", tile: TileId) -> None:
        self._kernel = kernel
        self.tile = tile

    def send(self, dst: TileId, payload: Any = None,
             kind: MessageKind = MessageKind.USER, size_bytes: int = 8,
             timestamp: int = 0, tag: Optional[int] = None) -> None:
        self._kernel.fabric_send(self.tile, dst, kind, payload, size_bytes,
                                 timestamp, tag)

    def poll(self, kind: MessageKind) -> Optional[Message]:
        return self._kernel.queues.poll(self.tile, kind)

    def poll_match(self, kind: MessageKind, src: Optional[TileId] = None,
                   tag: Optional[int] = None) -> Optional[Message]:
        return self._kernel.queues.poll_match(self.tile, kind, src, tag)

    def pending(self, kind: MessageKind) -> int:
        return self._kernel.queues.pending(self.tile, kind)


class _Retired:
    """What a per-service stand-in the kernel-call table retired loads
    as from an older shard, under the names below: nothing, as
    :meth:`KernelProxy.__setstate__` drops the slots that held one."""


_FabricProxy = _AllocatorProxy = _McpProxy = _Retired
_FutexProxy = _ThreadsProxy = _SyscallsProxy = _Retired


class KernelProxy(kernel_calls_base("worker")):
    """The kernel object handed to this worker's interpreters: its
    kernel calls (:data:`~repro.distrib.wire.KERNEL_CALLS`) are framed
    to the coordinator, the rest is local."""

    __slots__ = ("_worker", "config", "exec_functional", "stats", "queues",
                 "telemetry", "engine", "controllers")

    def __init__(self, worker: "Worker",
                 config: SimulationConfig) -> None:
        self._worker = worker
        self.config = config
        #: The mode of the quantum being run (:mod:`repro.sample`), as
        #: its RUN_QUANTUM frame named it: read by the interpreter, the
        #: L1 controllers' host charge and ``fabric_transfer``.
        self.exec_functional = False
        self.stats = StatGroup("sim")
        self.queues = worker.queues
        #: Worker-local event bus: no sinks (a worker never opens the
        #: coordinator's trace file); events batch over the wire.
        self.telemetry = create_bus(config.telemetry, with_sinks=False)
        self.engine = _RemoteL2(self)
        self.controllers = _ControllerTable(self)

    def __setstate__(self, state: tuple) -> None:
        # (An older shard's proxy holds slots this class no longer has.)
        for name, value in state[1].items():
            if name in KernelProxy.__slots__:
                setattr(self, name, value)

    def interface(self, tile: TileId) -> _NetIfProxy:
        return _NetIfProxy(self, tile)

    def fabric_transfer(self, src: TileId, dst: TileId, kind: MessageKind,
                        size_bytes: int, timestamp: int) -> int:
        if self.exec_functional:
            return 0  # as the fabric itself would answer, minus the RPC
        return super().fabric_transfer(src, dst, kind, size_bytes,
                                       timestamp)

    def charge_memory_access(self) -> None:
        if not self.exec_functional:
            self._worker._charges.append(0)

    def charge_trap(self) -> None:
        if not self.exec_functional:
            self._worker._charges.append(1)

    def charge_instructions(self, count: int) -> None:
        if not self.exec_functional:
            self._worker._charges.append(count + 2)


class Worker:
    """One worker process: frame loop + interpreter shard."""

    def __init__(self, conn, process_index: int,
                 config: SimulationConfig, tiles: List[int]) -> None:
        self.conn = conn
        self.process_index = process_index
        self.queues = ShardQueues([TileId(t) for t in tiles])
        self.kernel = KernelProxy(self, config)
        self.interpreters: dict = {}
        #: Casts issued since the last frame that could carry them.  A
        #: cast never needs an answer, so it waits for the next
        #: KERNEL_CALL (or the quantum's QUANTUM_DONE) and the
        #: coordinator applies it just before that frame's own work.
        #: The worker touches nothing shared in between, so shared
        #: state is touched in program order all the same.  Empty
        #: whenever the worker is between quanta.
        self._casts: List[tuple] = []
        #: Host charges since the last cast, as event codes (not host
        #: seconds: pricing one spends a jitter factor, which only the
        #: coordinator may), sealed into one ``charges`` cast.
        self._charges: List[int] = []
        #: Kernel proxies adopted through live shard migration: their
        #: interpreters keep charging stats into these trees, so stat
        #: and histogram collection folds them in alongside the
        #: primary kernel.
        self.adopted: List[KernelProxy] = []
        self._batch_events = config.telemetry.batch_events
        self._tele_worker = None
        if self.kernel.telemetry is not None:
            self._tele_worker = self.kernel.telemetry.channel(
                EventCategory.WORKER)
        #: Worker-side host profiler, or ``None``.  Under ``--profile``
        #: it times the ``worker`` table of
        #: :mod:`repro.profile.instrument`; a migration-capable run
        #: that is not profiled still brackets ``quantum.run`` alone,
        #: the per-worker busy signal the rebalance policy feeds on.
        self.profiler = create_profiler(config.profile)
        role = "worker"
        if self.profiler is None and (
                config.distrib.migration_capable()
                or config.distrib.needs_worker_busy_signal()):
            self.profiler, role = HostProfiler(), "worker.busy"
        #: Entered around :meth:`loop` by whoever serves this worker.
        self.timers = installed(self.profiler, role)

    def _flush_telemetry(self) -> None:
        """Ship buffered events once the batch threshold is crossed.

        Only called at points where the coordinator is known to be
        reading this worker's channel (inside a quantum, or answering
        COLLECT_TELEMETRY) — an unsolicited frame at any other time
        would deadlock against an unread channel.
        """
        bus = self.kernel.telemetry
        if bus is None or len(bus.events) < self._batch_events:
            return
        if self._casts or self._charges:
            # Merging the batch touches coordinator state; the casts
            # issued before it must land first.
            self._send(FrameKind.KERNEL_CAST, self._take_casts())
        self._send(FrameKind.TELEMETRY,
                   TelemetryBatch(self.process_index,
                                  bus.drain_pending()))

    # -- frame I/O -----------------------------------------------------------

    def _send(self, kind: FrameKind, payload: Any) -> None:
        self.conn.send_bytes(encode_frame(kind, payload))

    def _recv(self) -> tuple:
        return decode_frame(self.conn.recv_bytes())

    def rpc(self, method: str, args: tuple) -> Any:
        """Issue a kernel RPC; service interleaved casts while waiting.

        Between the KERNEL_CALL and its KERNEL_REPLY the coordinator may
        legitimately send this worker DELIVER, NOTIFY_WAKE or SPAWN
        frames (side effects of the very call in flight, e.g. a send to
        a tile we own, or a spawn landing on our shard).  Those are
        handled inline; all are pure-local, so no recursion is possible.
        """
        self._send(FrameKind.KERNEL_CALL,
                   (method, args, self._take_casts()))
        while True:
            kind, payload = self._recv()
            if kind is FrameKind.KERNEL_REPLY:
                value, l1_notes = payload
                self._apply_l1_notes(l1_notes)
                return value
            if kind is FrameKind.SHUTDOWN:
                # The coordinator aborted mid-call (its side raised);
                # exit instead of waiting for a reply that never comes.
                sys.exit(0)
            self._handle_cast_frame(kind, payload)

    def cast(self, method: str, args: tuple) -> None:
        if self._charges:
            self._seal_charges()
        self._casts.append((method, args))

    def _take_casts(self) -> List[tuple]:
        if self._charges:
            self._seal_charges()
        casts, self._casts = self._casts, []
        return casts

    def _seal_charges(self) -> None:
        """Queue the charges so far as one cast, before the next: a
        finished thread wakes its joiner, which draws jitter."""
        self._casts.append(("charges", (self._charges,)))
        self._charges = []

    def _apply_l1_notes(self, notes: List[tuple]) -> None:
        """What the coordinator's L2s did to our tiles' L1s since the
        last frame it sent us, in order: ``(tile, line, L1 method)``."""
        for tile, line_address, action in notes:
            getattr(self.kernel.controllers[tile].hierarchy,
                    action)(line_address)

    # -- frame handlers ------------------------------------------------------

    def _handle_cast_frame(self, kind: FrameKind, payload: Any) -> None:
        if kind is FrameKind.DELIVER:
            self.queues.enqueue(payload)
        elif kind is FrameKind.NOTIFY_WAKE:
            tile, timestamp = payload
            self.interpreters[tile].notify_wake(timestamp)
        elif kind is FrameKind.SPAWN:
            self._handle_spawn(payload)
        else:
            raise RuntimeError(f"unexpected frame {kind} in worker")

    def _handle_spawn(self, payload: tuple) -> None:
        """Create an interpreter for a tile we own.  Purely local.

        This handler must not issue RPCs: it can run while the
        coordinator is busy servicing *another* worker's quantum, in
        which case nobody would answer.  Everything the interpreter
        constructor needs — the synthetic code base the coordinator
        allocated for the program included — arrives in the frame.
        """
        tile, ref, args, start_clock, code_base = payload
        program = ref.resolve() if hasattr(ref, "resolve") else ref
        interpreter = ThreadInterpreter(self.kernel, TileId(tile), program,
                                        tuple(args), start_clock, code_base)
        if hasattr(ref, "resolve"):
            interpreter.program_ref = ref
        self.interpreters[tile] = interpreter
        if self._tele_worker is not None:
            # Buffered only (no pipe write: this frame can arrive while
            # the coordinator is busy elsewhere); ships with the next
            # batch.  WORKER events exist only in the mp backend.
            self._tele_worker.emit("interp_spawn", tile, start_clock,
                                   {"worker": self.process_index})

    def _handle_run_quantum(self, payload: tuple) -> None:
        tile, budget, cycle_limit, l1_notes, functional = payload
        self._apply_l1_notes(l1_notes)
        interpreter = self.interpreters[tile]
        # (its own kernel: a migrated-in interpreter keeps the proxy
        # it was pickled with)
        interpreter.kernel.exec_functional = functional
        result = interpreter.run(budget, cycle_limit)
        # The coordinator reads this pipe until QUANTUM_DONE, so a full
        # event buffer flushes here, *before* the terminating frame.
        self._flush_telemetry()
        done = (result.status.value, result.instructions,
                interpreter.core.cycles,
                interpreter.core.instruction_count)
        outcome = (interpreter.result
                   if result.status.value == "done" else None)
        casts = self._take_casts()
        try:
            self._send(FrameKind.QUANTUM_DONE, (*done, outcome, casts))
        except WireFormatError:
            if outcome is None:
                raise
            # Unshippable results stay worker-side.  Encoding failed,
            # so nothing of the first attempt reached the wire.
            self._send(FrameKind.QUANTUM_DONE, (*done, None, casts))

    def _handle_checkpoint(self) -> None:
        """Snapshot this shard and acknowledge the barrier (wire v4).

        Arrives only between quanta, so no interpreter is mid-op; the
        shard's entire mutable state is the kernel proxy (stats tree,
        L1s, inbound queues) plus the interpreters, pickled as one graph
        so shared references survive.
        """
        from repro.ckpt.snapshot import snapshot_bytes
        blob = snapshot_bytes({"kernel": self.kernel,
                               "interpreters": self.interpreters,
                               "adopted": self.adopted})
        self._send(FrameKind.CKPT_ACK,
                   ShardCheckpoint(self.process_index, blob))

    def _handle_restore(self, blob: bytes) -> None:
        """Adopt a checkpointed shard (sent right after HELLO).

        The restored kernel proxy replaces the HELLO-built one and is
        rewired to this worker, and every live interpreter's generator
        is replayed back to its checkpointed position.
        """
        hello_config = self.kernel.config
        shard = pickle.loads(blob)
        self.kernel = shard["kernel"]
        self.queues = self.kernel.queues
        self.interpreters = shard["interpreters"]
        # Shards snapshotted after a live migration carry the adopted
        # kernels too; rewire each exactly like the primary.
        self.adopted = list(shard.get("adopted", []))
        for kernel in [self.kernel, *self.adopted]:
            self._rewire(kernel)
        # Observers (telemetry bus/channels) were excised to None; the
        # resumed shard runs unobserved, like a --trace-less run.
        self._tele_worker = None
        # The HELLO config wins over the pickled one (wire v6): a
        # snapshot-library fork restores a shared prefix under a
        # variant config — mirror of the coordinator-side re-dressing.
        from repro.core.factory import redress_core
        for kernel in [self.kernel, *self.adopted]:
            kernel.config = hello_config
        for tile, interpreter in self.interpreters.items():
            redress_core(interpreter,
                         hello_config.core_config_for(int(tile)))
            interpreter.rebuild_generator()
        self._send(FrameKind.CKPT_ACK,
                   ShardCheckpoint(self.process_index, b""))

    def _rewire(self, kernel: KernelProxy) -> None:
        """Point an unpickled kernel proxy at this worker: the backref
        was excised by the snapshot pickler."""
        kernel._worker = self

    def _handle_adopt(self, blob: bytes) -> None:
        """Merge a migrated shard into this worker's own (wire v5).

        Unlike RESTORE, the current kernel and interpreters stay: the
        migrated interpreters join ours, their kernel proxies are
        rewired to this worker's channel, their inbound queues are
        folded into (and then shared with) ours, and each generator is
        replayed back to its position.  Arrives only between quanta,
        so nothing is mid-op on either side; migrated interpreters run
        telemetry-unobserved afterwards, like a restored shard.
        """
        shard = pickle.loads(blob)
        kernels = []
        seen = set()
        for kernel in [shard["kernel"], *shard.get("adopted", [])]:
            if id(kernel) not in seen:
                seen.add(id(kernel))
                kernels.append(kernel)
        self.queues.absorb(shard["kernel"].queues)
        for kernel in kernels:
            self._rewire(kernel)
            # One shared queue set per worker: DELIVER frames for the
            # migrated tiles land in our queues, and the migrated
            # interpreters poll through their (rewired) kernel.
            kernel.queues = self.queues
            # And one controller table: L1 notes for a migrated tile,
            # and a later thread on it, find the L1s it warmed.
            self.kernel.controllers.update(kernel.controllers)
        for tile, interpreter in shard["interpreters"].items():
            interpreter.rebuild_generator()
            self.interpreters[tile] = interpreter
        self.adopted.extend(kernels)
        self._send(FrameKind.CKPT_ACK,
                   ShardCheckpoint(self.process_index, b""))

    def _handle_release(self) -> None:
        """Shed the migrated-away shard; start over empty (wire v5).

        The inverse of ADOPT, sent to the *source* of a non-departing
        migration.  The old kernel proxy (whose stats the adopting
        worker now reports), its queues and every interpreter are
        dropped and replaced with a fresh empty shard — so this worker
        neither double-counts the moved tiles' stats nor collides with
        a shard migrated back in later.
        """
        self.queues = ShardQueues([])
        self.kernel = KernelProxy(self, self.kernel.config)
        self.interpreters = {}
        self.adopted = []
        self._tele_worker = None
        if self.kernel.telemetry is not None:
            self._tele_worker = self.kernel.telemetry.channel(
                EventCategory.WORKER)
        self._send(FrameKind.CKPT_ACK,
                   ShardCheckpoint(self.process_index, b""))

    def _handle_collect_stats(self, l1_notes: List[tuple]) -> None:
        self._apply_l1_notes(l1_notes)  # a purge counts an invalidation
        flat = dict(self.kernel.stats.to_dict())
        for kernel in self.adopted:
            for path, value in kernel.stats.to_dict().items():
                flat[path] = flat.get(path, 0) + value
        self._send(FrameKind.STATS, flat)

    def _handle_collect_host_stats(self) -> None:
        """Ship this worker's host-profiler scopes (empty when off)."""
        scopes = (self.profiler.scope_dict()
                  if self.profiler is not None else {})
        self._send(FrameKind.HOST_STATS,
                   HostStatsBatch(self.process_index, scopes))

    def _handle_collect_telemetry(self) -> None:
        """Final drain: every buffered event plus histogram states.

        Histograms ride the telemetry channel (not COLLECT_STATS, which
        ships the counter tree) because merging them needs structured
        state, not a flat int mapping.
        """
        bus = self.kernel.telemetry
        events = bus.drain_pending() if bus is not None else []
        histograms = self.kernel.stats.histogram_states()
        if self.adopted:
            scratch = StatGroup("sim")
            scratch.merge_histogram_states(histograms)
            for kernel in self.adopted:
                scratch.merge_histogram_states(
                    kernel.stats.histogram_states())
            histograms = scratch.histogram_states()
        self._send(FrameKind.TELEMETRY,
                   TelemetryBatch(self.process_index, events,
                                  histograms))

    # -- main loop -----------------------------------------------------------

    def loop(self) -> None:
        while True:
            kind, payload = self._recv()
            if kind is FrameKind.SHUTDOWN:
                return
            if kind is FrameKind.GOODBYE:
                # Drained: our tiles live elsewhere now; leave cleanly.
                return
            try:
                assert not (self._casts or self._charges), \
                    f"casts pending between quanta at {kind.value}"
                if kind is FrameKind.RUN_QUANTUM:
                    self._handle_run_quantum(payload)
                elif kind is FrameKind.CHECKPOINT:
                    self._handle_checkpoint()
                elif kind is FrameKind.RESTORE:
                    self._handle_restore(payload)
                elif kind is FrameKind.ADOPT:
                    self._handle_adopt(payload)
                elif kind is FrameKind.RELEASE:
                    self._handle_release()
                elif kind is FrameKind.COLLECT_STATS:
                    self._handle_collect_stats(payload)
                elif kind is FrameKind.COLLECT_TELEMETRY:
                    self._handle_collect_telemetry()
                elif kind is FrameKind.COLLECT_HOST_STATS:
                    self._handle_collect_host_stats()
                else:
                    self._handle_cast_frame(kind, payload)
            except SystemExit:
                return
            except BaseException as exc:
                blob = None
                try:
                    blob = pickle.dumps(exc)
                except Exception:
                    pass
                self._send(FrameKind.ERROR,
                           (traceback.format_exc(), blob))


def tcp_worker_main(address: str, timeout: float = 30.0) -> None:
    """Entry point of a TCP worker: dial, handshake, serve frames.

    Used both by coordinator-forked local workers (self-contained TCP
    runs) and by ``repro worker --connect`` on another host.  The
    handshake pins the wire version.
    """
    from repro.distrib.wire import WIRE_VERSION
    from repro.net.listener import connect_worker
    channel, welcome = connect_worker(address, WIRE_VERSION,
                                      timeout=timeout)
    run_connected_worker(channel, welcome)


def run_connected_worker(channel, welcome=None) -> None:
    """Serve a coordinator over ``channel``: HELLO, then frames.

    ``welcome`` is the net handshake's reply where there was one (TCP,
    not a forked pipe): its config fingerprint is re-checked against
    the HELLO config, so a worker can never execute a different
    simulation than the one it agreed to join.
    """
    from repro.net.channel import ChannelClosedError
    try:
        kind, payload = decode_frame(channel.recv_bytes())
        if kind is not FrameKind.HELLO:
            raise RuntimeError(f"expected HELLO, got {kind}")
        config, tiles, index = payload
        worker = Worker(channel, index, config, tiles)
        if welcome is not None:
            from repro.net.handshake import HandshakeError
            if welcome.config_fingerprint and \
                    config.content_hash() != welcome.config_fingerprint:
                raise HandshakeError(
                    "config fingerprint mismatch between handshake "
                    f"({welcome.config_fingerprint}) and HELLO "
                    f"({config.content_hash()}); refusing to desync")
        with worker.timers:
            worker.loop()
    except (EOFError, ChannelClosedError, KeyboardInterrupt):
        pass  # coordinator gone: nothing left to serve
    finally:
        channel.close()
