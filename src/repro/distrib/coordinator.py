"""Coordinator: the mp backend's master control process.

The coordinator plays the role Graphite gives the MCP's host process
(paper §2.2): it owns every service needing a globally consistent view
— the scheduler, the memory system, the MCP itself, the network models
and the host cost model — and drives N forked workers, one per entry
of :meth:`~repro.host.cluster.ClusterLayout.shards`.

:class:`DistribSimulator` is a :class:`~repro.sim.simulator.Simulator`
whose tile threads are :class:`RemoteTask` stubs.  When the scheduler
dispatches one, the coordinator sends RUN_QUANTUM to the owning worker
and synchronously services that worker's kernel traffic until
QUANTUM_DONE — so exactly one quantum executes anywhere at a time, and
every piece of shared state is touched in the same order as the
in-process backend.  That is what makes the two backends produce
byte-identical metrics from the same seed; the speed-up story of the
mp backend is the *sweep pool* (:mod:`repro.distrib.pool`), which runs
independent configurations in parallel.

The service loop costs one round trip per true interaction point — an
L1 miss or write upgrade (the L1s live with the workers' threads; the
L2s, the coherence point, stay here), a message, a sync or system
call — not per front-end op.  The worker's one-way casts (its host
charges since the last cast, as one list of event codes; a completed
store's bytes) arrive inside the next KERNEL_CALL or the closing
QUANTUM_DONE and are applied ahead of it:
the worker touches no shared state between a cast and the frame that
carries it, so the order of shared-state touches is unchanged.  What
an L2 does to a tile's L1s (inclusion purges, M->S downgrades) is as
lazy: noted, it rides the next RUN_QUANTUM or KERNEL_REPLY to the
tile's worker, which is before the tile next executes.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import time
from typing import (TYPE_CHECKING, Any, Callable, Dict, Iterator, List,
                    Optional, Tuple)

from repro.common import slot_state
from repro.common.config import SimulationConfig
from repro.common.ids import TileId
from repro.distrib.errors import (
    DistribError,
    WorkerCrashError,
    WorkerTimeoutError,
)
from repro.distrib.shard import ShardTransport
from repro.distrib.worker import run_connected_worker, tcp_worker_main
from repro.distrib.wire import (
    WIRE_VERSION,
    FrameKind,
    HostStatsBatch,
    WorkloadRef,
    decode_frame,
    encode_frame,
    bind_handlers,
    make_program_ref,
    program_key,
)
from repro.host.cluster import ClusterLayout
from repro.net.channel import (
    Channel,
    ChannelClosedError,
    ChannelError,
    fork_child,
)
from repro.net.rebalance import create_policy
from repro.host.scheduler import QuantumResult, QuantumStatus, ThreadTask
from repro.sim.simulator import Simulator
from repro.telemetry.aggregate import TelemetryBatch, merge_batch
from repro.telemetry.events import EventCategory
from repro.transport.message import Message
from repro.transport.transport import Transport
from repro.workloads.base import get_workload

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.net.listener import NetListener

#: Seconds between liveness re-checks while waiting on a worker.
_LIVENESS_TICK = 0.05


class WorkerCluster:
    """Lifecycle, framed I/O and tile ownership for the worker fleet.

    The cluster speaks :class:`~repro.net.channel.Channel` — forked
    children over socketpairs (``transport="pipe"``) or
    TCP-connected workers (``transport="tcp"``, local self-dialed or
    remote ``repro worker --connect`` dial-ins) — and owns the dynamic
    tile→worker map.  Membership only changes between quanta (the
    coordinator polls the listener from its ``net`` boundary stage),
    and a live worker's whole shard can be migrated to another worker
    via the checkpoint blobs of wire v4 (:meth:`migrate_shard`).
    Placement is
    host bookkeeping only: every modelled cost reads the simulated
    :class:`~repro.host.cluster.ClusterLayout`, so joins, leaves and
    migrations never perturb simulated metrics.
    """

    def __init__(self, layout: ClusterLayout,
                 config: SimulationConfig) -> None:
        self.layout = layout
        self.config = config
        self.timeout = config.distrib.worker_timeout
        self.shutdown_timeout = config.distrib.shutdown_timeout
        #: Optional :class:`~repro.obs.flight.FlightRecorder` whose
        #: wire-frame ring :meth:`send`/:meth:`recv` feed; installed by
        #: the simulator after formation (formation frames are not
        #: recorded — the ring is for steady-state forensics).
        self.flight = None
        self._channels: List[Channel] = []
        #: False once a worker departed (drained + GOODBYE) or died.
        self._active: List[bool] = []
        #: Dynamic tile→worker map, covering *every* tile id; updated
        #: by :meth:`migrate_shard`, read by every routed frame.
        self._owner: Dict[int, int] = {}
        #: Every process this cluster spawned (teardown safety net).
        self._spawned: List[Any] = []
        self.listener: Optional[NetListener] = None
        try:
            if config.distrib.transport == "tcp":
                self._start_tcp(config)
            else:
                self._start_pipes(config)
        except Exception:
            self.shutdown()
            raise

    # -- formation -----------------------------------------------------------

    def _start_pipes(self, config: SimulationConfig) -> None:
        for index, tiles in enumerate(self.layout.shards()):
            channel = fork_child(run_connected_worker,
                                 f"repro-worker-{index}")
            self._spawned.append(channel.proc)
            self._attach(channel)
            for tile in tiles:
                self._owner[int(tile)] = index
            self.send(index, FrameKind.HELLO,
                      (config, [int(t) for t in tiles], index))

    def _start_tcp(self, config: SimulationConfig) -> None:
        # Loaded here: a run over socketpairs never opens a listener.
        from repro.net.listener import NetListener
        self.listener = NetListener(
            config.distrib.listen, role="coordinator",
            wire_version=WIRE_VERSION,
            config_fingerprint=config.content_hash(),
            trace=config.telemetry.trace_id)
        expect = config.distrib.expect_workers
        count = expect if expect > 0 else self.layout.num_processes
        procs_by_pid: Dict[int, Any] = {}
        if expect == 0:
            # Self-contained multi-host shape: fork local workers that
            # dial our own listener, exercising the full TCP path.
            context = multiprocessing.get_context("fork")
            for index in range(count):
                proc = context.Process(
                    target=tcp_worker_main,
                    args=(self.listener.address,),
                    name=f"repro-worker-{index}", daemon=True)
                proc.start()
                self._spawned.append(proc)
                procs_by_pid[proc.pid] = proc
        deadline = time.monotonic() + config.distrib.connect_timeout
        while len(self._channels) < count:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise WorkerTimeoutError(
                    f"only {len(self._channels)} of {count} workers "
                    f"dialed {self.listener.address} within "
                    f"{config.distrib.connect_timeout:.0f}s")
            accepted = self.listener.accept(timeout=min(remaining, 1.0))
            if accepted is None:
                continue
            channel, hello = accepted
            channel.proc = procs_by_pid.get(hello.pid)
            self._attach(channel)
        for index in range(count):
            tiles = [t for t in range(self.layout.num_tiles)
                     if t % count == index]
            for tile in tiles:
                self._owner[tile] = index
            self.send(index, FrameKind.HELLO, (config, tiles, index))

    def _attach(self, channel: Channel) -> int:
        """Register a worker's channel; its index.  A frame that stops
        part-way is failed after the worker timeout, as silence is."""
        channel.bound_frame_reads(self.timeout)
        self._channels.append(channel)
        self._active.append(True)
        return len(self._channels) - 1

    # -- membership ----------------------------------------------------------

    @property
    def num_workers(self) -> int:
        """Total worker slots ever attached (departed ones included)."""
        return len(self._channels)

    def workers(self) -> List[int]:
        """Indices of the workers still attached."""
        return [i for i, alive in enumerate(self._active) if alive]

    def tiles_of(self, worker: int) -> List[int]:
        return sorted(t for t, w in self._owner.items() if w == worker)

    def owner(self, tile: TileId) -> int:
        return self._owner[int(tile)]

    def adopt_ownership(self, owner_map: Dict[int, int]) -> None:
        """Install a checkpointed tile→worker map (resume path)."""
        self._owner = dict(owner_map)

    @property
    def ownership(self) -> Dict[int, int]:
        return dict(self._owner)

    def poll_joins(self) -> List[int]:
        """Accept any pending dial-ins; returns the new worker indices.

        Called from the coordinator's ``net`` stage, i.e. strictly
        between quanta — a joiner becomes a registered (initially
        tile-less) worker without ever racing a running quantum.  A
        peer failing the handshake is rejected and skipped; it never
        touches the pickle wire.
        """
        if self.listener is None:
            return []
        joined: List[int] = []
        for channel, _hello in self.listener.pending(lambda exc: None):
            index = self._attach(channel)
            self.send(index, FrameKind.HELLO, (self.config, [], index))
            joined.append(index)
        return joined

    def migrate_shard(self, src: int, dst: int) -> List[int]:
        """Move every tile owned by ``src`` into ``dst``, live.

        The coordinated-checkpoint machinery of wire v4 does the heavy
        lifting: ``src`` snapshots its shard (kernel proxy, inbound
        queues, interpreters with their replay logs) into an opaque
        blob, ``dst`` ADOPTs it — merging the migrated tiles into its
        own shard — and the ownership map is rewired.  Runs strictly
        between quanta, so the blob is consistent by construction.
        """
        tiles = self.tiles_of(src)
        if not tiles or src == dst:
            return []
        shard = self.request(src, FrameKind.CHECKPOINT, None,
                             FrameKind.CKPT_ACK)
        self.request(dst, FrameKind.ADOPT, shard.blob, FrameKind.CKPT_ACK)
        # The source sheds its (now stale) shard: its old kernel would
        # otherwise keep double-reporting the moved tiles' stats, and a
        # shard migrated back in later would collide with the leftover
        # queue entries.  A departing source is GOODBYEd right after,
        # which makes the release a harmless no-op.
        self.request(src, FrameKind.RELEASE, None, FrameKind.CKPT_ACK)
        for tile in tiles:
            self._owner[tile] = dst
        return tiles

    def depart(self, worker: int) -> None:
        """Release a drained worker: GOODBYE, detach, reap."""
        try:
            self.send(worker, FrameKind.GOODBYE, None)
        except WorkerCrashError:
            pass
        self._active[worker] = False
        channel = self._channels[worker]
        proc = channel.proc
        if proc is not None:
            proc.join(timeout=self.shutdown_timeout)
            if proc.is_alive():  # pragma: no cover - defensive
                proc.terminate()
                proc.join(timeout=1.0)
        channel.close()

    # -- framed I/O ----------------------------------------------------------

    def send(self, worker: int, kind: FrameKind, payload: Any) -> None:
        blob = encode_frame(kind, payload)
        channel = self._channels[worker]
        if self.flight is not None:
            self.flight.note_frame("send", f"worker{worker}",
                                   kind.value, len(blob))
        try:
            channel.send_bytes(blob)
        except ChannelClosedError as exc:
            raise WorkerCrashError(
                f"worker {worker} ({channel.describe()}) closed while "
                f"sending {kind.value}: {exc}") from exc

    def recv(self, worker: int) -> Tuple[FrameKind, Any]:
        """Receive one frame, bounding the wait by the worker timeout.

        A dead worker is distinguished from a slow one: liveness is
        re-checked every poll tick, and a crash surfaces as
        :class:`WorkerCrashError` (with exit code, when the worker is
        a local process) rather than a hang.
        """
        channel = self._channels[worker]
        deadline = time.monotonic() + self.timeout
        while True:
            if channel.poll(_LIVENESS_TICK):
                try:
                    blob = channel.recv_bytes()
                except ChannelClosedError as exc:
                    raise WorkerCrashError(
                        f"worker {worker} ({channel.describe()}) closed "
                        f"its channel (exit code {channel.exitcode()})"
                    ) from exc
                except ChannelError as exc:  # stalled mid-frame
                    raise WorkerTimeoutError(
                        f"worker {worker} stopped mid-frame for "
                        f"{self.timeout:.0f}s") from exc
                frame = decode_frame(blob)
                if self.flight is not None:
                    self.flight.note_frame("recv", f"worker{worker}",
                                           frame[0].value, len(blob))
                return frame
            if not channel.alive():
                # One last poll: a frame may have raced with death.
                if channel.poll(0):
                    continue
                raise WorkerCrashError(
                    f"worker {worker} ({channel.describe()}) died "
                    f"(exit code {channel.exitcode()})")
            if time.monotonic() > deadline:
                raise WorkerTimeoutError(
                    f"worker {worker} sent nothing for "
                    f"{self.timeout:.0f}s")

    def reply(self, worker: int, expect: FrameKind) -> Any:
        """Receive the ``expect`` frame a request is owed; its payload.

        A worker-reported ERROR re-raises the worker's exception here,
        any other frame is a protocol violation.
        """
        kind, payload = self.recv(worker)
        if kind is FrameKind.ERROR:
            _raise_remote(worker, payload)
        if kind is not expect:
            raise DistribError(
                f"worker {worker}: expected {expect.value}, got "
                f"{kind.value}")
        return payload

    def request(self, worker: int, kind: FrameKind, payload: Any,
                expect: FrameKind) -> Any:
        """Send one frame and return the payload of its ``expect``
        reply.  (Barriers that fan out send to every worker first and
        collect each :meth:`reply` after.)"""
        self.send(worker, kind, payload)
        return self.reply(worker, expect)

    # -- frame helpers -------------------------------------------------------

    def deliver(self, message: Message) -> None:
        self.send(self.owner(message.dst), FrameKind.DELIVER, message)

    def notify_wake(self, tile: TileId, timestamp: int) -> None:
        self.send(self.owner(tile), FrameKind.NOTIFY_WAKE,
                  (int(tile), timestamp))

    def spawn(self, tile: TileId, ref: Any, args: tuple,
              start_clock: int, code_base: int) -> None:
        self.send(self.owner(tile), FrameKind.SPAWN,
                  (int(tile), ref, args, start_clock, code_base))

    def collect_stats(self, l1_notes_for: Callable[[int], list]
                      = lambda worker: []) -> List[Dict[str, int]]:
        """Fetch each attached worker's flattened local statistics,
        handing it its last L1 notes first (they move L1 counters)."""
        return [self.request(worker, FrameKind.COLLECT_STATS,
                             l1_notes_for(worker), FrameKind.STATS)
                for worker in self.workers()]

    def collect_telemetry(self) -> List[TelemetryBatch]:
        """Final telemetry drain: each worker's events + histograms."""
        return [self.request(worker, FrameKind.COLLECT_TELEMETRY, None,
                             FrameKind.TELEMETRY)
                for worker in self.workers()]

    def collect_host_stats(self) -> List[HostStatsBatch]:
        """Fetch each worker's host-profiler scope export (wire v3)."""
        return [self.request(worker, FrameKind.COLLECT_HOST_STATS, None,
                             FrameKind.HOST_STATS)
                for worker in self.workers()]

    def quantum_busy_ns(self) -> Dict[int, int]:
        """Cumulative per-worker ``quantum.run`` self-time (rebalance)."""
        busy = {}
        for batch in self.collect_host_stats():
            scope = batch.scopes.get("quantum.run", {})
            busy[batch.worker] = int(scope.get("self_ns", 0))
        return busy

    # -- teardown ------------------------------------------------------------

    @property
    def _procs(self) -> List[Any]:
        """Local process handles by worker index (None for remotes)."""
        return [channel.proc for channel in self._channels]

    def shutdown(self) -> None:
        """Stop all workers: ask nicely, then terminate stragglers."""
        for worker, channel in enumerate(self._channels):
            if not self._active[worker]:
                continue
            try:
                channel.send_bytes(
                    encode_frame(FrameKind.SHUTDOWN, None))
            except Exception:
                pass
        deadline = time.monotonic() + self.shutdown_timeout
        for proc in self._spawned:
            proc.join(timeout=max(deadline - time.monotonic(), 0.1))
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=1.0)
        for channel in self._channels:
            try:
                channel.close()
            except Exception:
                pass
        if self.listener is not None:
            self.listener.close()
            self.listener = None

    def __enter__(self) -> "WorkerCluster":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()


def _raise_remote(worker: int, payload: tuple) -> None:
    """Re-raise a worker-reported failure with its original type."""
    remote_tb, blob = payload
    if blob is not None:
        try:
            import pickle
            exc = pickle.loads(blob)
        except Exception:
            exc = None
        if isinstance(exc, BaseException):
            if hasattr(exc, "add_note"):
                exc.add_note(f"(raised in worker {worker})\n"
                             f"--- worker traceback ---\n{remote_tb}")
            raise exc
    raise WorkerCrashError(f"worker {worker} failed", remote_tb)


class _CoreView:
    """Coordinator-side snapshot of a remote interpreter's core state."""

    __slots__ = ("cycles", "instruction_count")

    def __init__(self, cycles: int) -> None:
        self.cycles = cycles
        self.instruction_count = 0


class RemoteTask(ThreadTask):
    """Scheduler stub for an interpreter living in a worker.

    Caches the pieces of interpreter state the scheduler and sync
    models read between quanta (`cycles`, instruction counts); the
    caches are refreshed from every QUANTUM_DONE frame and advanced by
    wake notifications exactly as ``Clock.forward_to`` would.
    """

    __slots__ = ("tile", "start_clock", "core", "result", "kernel")

    def __init__(self, kernel: "DistribSimulator", tile: TileId,
                 start_clock: int) -> None:
        self.tile = tile
        self.start_clock = start_clock
        self.core = _CoreView(start_clock)
        self.result: Any = None
        #: The simulator serving this thread, as an interpreter's is.
        self.kernel = kernel

    def __setstate__(self, state: tuple) -> None:
        _dict, slots = state
        # A ``repro.ckpt/4`` snapshot written before the rename calls
        # the simulator ``_sim``.
        if "_sim" in slots:
            slots["kernel"] = slots.pop("_sim")
        for name, value in slots.items():
            setattr(self, name, value)

    @property
    def cycles(self) -> int:
        return self.core.cycles

    def notify_wake(self, timestamp: int) -> None:
        if timestamp > self.core.cycles:
            self.core.cycles = timestamp
        self.kernel.cluster.notify_wake(self.tile, timestamp)

    def run(self, budget_instructions: int,
            cycle_limit: Optional[int] = None) -> QuantumResult:
        return self.kernel.service_quantum(self, budget_instructions,
                                           cycle_limit)


class DistribSimulator(Simulator):
    """Simulator whose tile threads execute in forked worker processes."""

    __slots__ = ("_cluster", "_restore_shards", "_owner_at_ckpt",
                 "_drained", "_l1_notes", "_rebalance",
                 "_kernel_handlers")

    def __init__(self, config: SimulationConfig) -> None:
        super().__init__(config)
        self._cluster: Optional[WorkerCluster] = None
        #: Shard blobs a checkpoint loader stashes for ``resume_run``.
        self._restore_shards: Dict[int, bytes] = {}
        #: Tile ownership at snapshot time; rides the coordinator
        #: snapshot so a checkpoint taken after a migration resumes
        #: with the migrated placement, not the initial striping.
        self._owner_at_ckpt: Dict[int, int] = {}
        #: True once the scripted drain (``--drain-turn``) has fired.
        self._drained = False
        #: What the L2s did to the L1s the workers hold, in order, until
        #: a frame to the tile's worker takes it along; rides snapshots.
        self._l1_notes = self.engine.release_l1s()

    def _l1_notes_for(self, worker: int) -> List[tuple]:
        """Take the pending notes for the tiles ``worker`` holds *now*:
        a shard that migrated since takes its notes with it."""
        owner = self.cluster.owner
        due = [note for note in self._l1_notes if owner(note[0]) == worker]
        if due:
            # In place: the hierarchies append to this very list.
            self._l1_notes[:] = [note for note in self._l1_notes
                                 if owner(note[0]) != worker]
        return due

    def _arm_boundary(self) -> None:
        """The base stages plus ``net``, with the host-side policies it
        drives: both track *this* fleet's processes, so a restored
        coordinator — which starts a fresh fleet — starts them fresh."""
        super()._arm_boundary()
        # The kernel-call handlers are host-side wiring like the stages
        # (closures cannot cross a snapshot), armed with them.
        self._kernel_handlers = bind_handlers(self)
        config = self.config
        self._rebalance = create_policy(config)
        if (config.distrib.backend == "mp"
                and (config.distrib.transport == "tcp"
                     or config.distrib.migration_capable()
                     or config.distrib.needs_worker_busy_signal())):
            # Membership and migration act strictly between quanta:
            # the stage polls for dial-ins, fires the scripted drain,
            # and evaluates the rebalance policy.
            self.scheduler.set_stage("net", 1, self._net_stage)

    def _release(self) -> None:
        """The base cut, plus the kernel-call handlers: closures over
        this simulator.  The fleet and the transport's attachment to it
        go when :meth:`_fleet` closes, right after."""
        super()._release()
        self._kernel_handlers = None

    def __getstate__(self) -> tuple:
        state = slot_state(self)
        state["_cluster"] = None
        state["_restore_shards"] = {}
        del state["_kernel_handlers"]
        return None, state  # (no __dict__, slots): default restore

    def __setstate__(self, state: tuple) -> None:
        _dict, slots = state
        # A snapshot written before the straggler watchdog was retired
        # holds its slot.
        slots.pop("_watchdog", None)
        for name, value in slots.items():
            setattr(self, name, value)

    @property
    def cluster(self) -> WorkerCluster:
        assert self._cluster is not None, "cluster not running"
        return self._cluster

    def _make_transport(self) -> Transport:
        return ShardTransport(self.layout, self.stats.child("transport"))

    # -- lifecycle -----------------------------------------------------------

    def run(self, main_program: Any, args: tuple = ()) -> Any:
        """As :meth:`Simulator.run`, with a named kernel's module loaded
        first: the fleet forks in :meth:`_running`, so every worker
        inherits the module instead of compiling it in the run."""
        if isinstance(main_program, WorkloadRef):
            get_workload(main_program.workload)
        return super().run(main_program, args)

    @contextlib.contextmanager
    def _fleet(self) -> Iterator[WorkerCluster]:
        """Bring the worker fleet up for one run, and down after it."""
        cluster = WorkerCluster(self.layout, self.config)
        cluster.flight = self.flight
        self._cluster = cluster
        self.transport.attach(cluster)
        try:
            yield cluster
        finally:
            cluster.shutdown()
            self.transport.attach(None)
            self._cluster = None

    @contextlib.contextmanager
    def _running(self, resumed: bool) -> Iterator[None]:
        """The fleet is up exactly as long as the run is — inside the
        profiler's bracket, so that cluster start-up (the paper's
        process start-up cost, for real) counts toward host wall time.
        A resumed run starts a fresh cluster (HELLO as usual), then
        RESTOREs each worker's shard before the first quantum."""
        if resumed and not self._restore_shards:
            from repro.common.errors import CheckpointError
            raise CheckpointError(
                "no shard blobs to restore; load the checkpoint via "
                "repro.ckpt.recovery.load_checkpoint")
        with super()._running(resumed), self._fleet() as cluster:
            if resumed:
                self._restore_fleet(cluster)
            else:
                tele_worker = self._channel(EventCategory.WORKER)
                if tele_worker is not None:
                    for index in cluster.workers():
                        tele_worker.emit(
                            "worker_start", None, 0,
                            {"worker": index,
                             "tiles": len(cluster.tiles_of(index))})
            yield

    def _restore_fleet(self, cluster: WorkerCluster) -> None:
        from repro.common.errors import CheckpointError
        if self._owner_at_ckpt:
            # The checkpoint was taken under a migrated placement;
            # shards must land where the blobs say the tiles live.
            highest = max(self._owner_at_ckpt.values())
            if highest >= cluster.num_workers:
                raise CheckpointError(
                    f"checkpoint placement references worker "
                    f"{highest} but only {cluster.num_workers} "
                    f"workers attached; resume with at least "
                    f"{highest + 1} workers")
            cluster.adopt_ownership(self._owner_at_ckpt)
        restored = []
        for worker in cluster.workers():
            blob = self._restore_shards.get(worker)
            if blob is None:
                if cluster.tiles_of(worker):
                    raise CheckpointError(
                        f"checkpoint has no shard for worker "
                        f"{worker}")
                continue  # fully drained before the snapshot
            cluster.send(worker, FrameKind.RESTORE, blob)
            restored.append(worker)
        for worker in restored:
            cluster.reply(worker, FrameKind.CKPT_ACK)
        self._restore_shards = {}

    # -- membership & migration ----------------------------------------------

    def _net_stage(self, scheduler) -> None:
        """Between-quanta membership tick.

        Fires after every scheduler turn — the one point where no
        quantum is in flight anywhere — and performs the three
        membership actions in a fixed order: accept pending dial-ins,
        run the scripted drain, evaluate the rebalance policy.  All
        three move host placement only, so the stage cannot change
        simulated metrics.
        """
        cluster = self._cluster
        if cluster is None:
            return
        channel = self._channel(EventCategory.NET)
        for index in cluster.poll_joins():
            if channel is not None:
                channel.emit(
                    "worker.joined", None, 0,
                    {"worker": index,
                     "peer": cluster._channels[index].describe()})
        distrib = self.config.distrib
        turn = scheduler.turns
        if (distrib.drain_turn and not self._drained
                and turn >= distrib.drain_turn):
            self._drained = True
            self._scripted_drain(cluster, channel)
        if (self._rebalance is not None
                and turn % distrib.rebalance_every == 0):
            self._policy_drain(cluster, channel, cluster.quantum_busy_ns())

    def _scripted_drain(self, cluster: WorkerCluster, channel) -> None:
        """Deterministic drain (``--drain-turn``): one worker's shard
        moves and the worker departs — the migration path exercised
        without depending on host timing."""
        active = cluster.workers()
        src = self.config.distrib.drain_worker
        if src < 0:
            loaded = [w for w in active if cluster.tiles_of(w)]
            if not loaded:
                return
            src = max(loaded)
        destinations = [w for w in active if w != src]
        if src not in active or not destinations:
            return
        self._migrate(cluster, channel, src, min(destinations),
                      depart=True)

    def _policy_drain(self, cluster: WorkerCluster, channel,
                      busy: Dict[int, int]) -> None:
        active = cluster.workers()
        loaded = [w for w in active if cluster.tiles_of(w)]
        idle = [w for w in active if not cluster.tiles_of(w)]
        decision = self._rebalance.observe(busy, loaded, idle)
        if decision is not None:
            self._migrate(cluster, channel, decision[0], decision[1],
                          depart=False)

    def _migrate(self, cluster: WorkerCluster, channel, src: int,
                 dst: int, depart: bool) -> None:
        tiles = cluster.migrate_shard(src, dst)
        if not tiles:
            return
        if channel is not None:
            channel.emit("worker.migrated", None, 0,
                         {"src": src, "dst": dst, "tiles": len(tiles)})
        if depart:
            cluster.depart(src)
            if channel is not None:
                channel.emit("worker.left", None, 0, {"worker": src})

    # -- checkpointing -------------------------------------------------------

    def _checkpoint_blobs(self) -> Dict[str, bytes]:
        """Coordinated snapshot: barrier every worker, then self.

        The ``ckpt`` stage fires between quanta, when every worker sits
        idle in its frame loop — so CHECKPOINT can fan out to all
        workers at once and each shard snapshot is consistent with the
        coordinator's shared state by construction.
        """
        from repro.ckpt.snapshot import snapshot_bytes
        cluster = self.cluster
        active = cluster.workers()
        for worker in active:
            cluster.send(worker, FrameKind.CHECKPOINT, None)
        blobs: Dict[str, bytes] = {}
        for worker in active:
            shard = cluster.reply(worker, FrameKind.CKPT_ACK)
            blobs[f"shard{shard.worker}"] = shard.blob
        # The coordinator snapshot carries the live tile→worker map so
        # a post-migration checkpoint resumes with the same placement.
        self._owner_at_ckpt = cluster.ownership
        blobs["coordinator"] = snapshot_bytes(self)
        return blobs

    # -- spawning ------------------------------------------------------------

    def _start_thread(self, tile: TileId, program: Any, args: tuple,
                      clock: int) -> RemoteTask:
        """The thread is built in the worker owning ``tile``, from a
        program reference and a code base allocated here, in order."""
        ref = make_program_ref(program)
        self.cluster.spawn(tile, ref, args, clock,
                           self._code_base_for(program_key(ref)))
        return RemoteTask(self, tile, clock)

    # -- the quantum service loop --------------------------------------------

    def service_quantum(self, task: RemoteTask, budget: int,
                        cycle_limit: Optional[int]) -> QuantumResult:
        """Run one quantum remotely, servicing kernel traffic inline.

        The worker owning ``task.tile`` becomes the (single) active
        worker; its kernel calls, and the casts each frame carries
        ahead of its own work, are applied to the shared state here,
        in program order, until QUANTUM_DONE.
        """
        worker = self.cluster.owner(task.tile)
        self.cluster.send(worker, FrameKind.RUN_QUANTUM,
                          (int(task.tile), budget, cycle_limit,
                           self._l1_notes_for(worker),
                           self.exec_functional))
        while True:
            kind, payload = self.cluster.recv(worker)
            if kind is FrameKind.QUANTUM_DONE:
                (status, instructions, cycles, icount, outcome,
                 casts) = payload
                self._apply_casts(casts)
                task.core.cycles = cycles
                task.core.instruction_count = icount
                if QuantumStatus(status) is QuantumStatus.DONE:
                    task.result = outcome
                return QuantumResult(QuantumStatus(status), instructions)
            if kind is FrameKind.KERNEL_CALL:
                method, args, casts = payload
                self._apply_casts(casts)
                value = self._kernel_handlers[method](*args)
                self.cluster.send(worker, FrameKind.KERNEL_REPLY,
                                  (value, self._l1_notes_for(worker)))
            elif kind is FrameKind.KERNEL_CAST:
                self._apply_casts(payload)
            elif kind is FrameKind.TELEMETRY:
                merge_batch(self.telemetry, self.stats, payload)
            elif kind is FrameKind.ERROR:
                _raise_remote(worker, payload)
            else:
                raise DistribError(
                    f"unexpected frame {kind.value} from worker "
                    f"{worker} during a quantum")

    # -- kernel calls served by a method of this backend -------------------

    def memory_read(self, tile: TileId, address: int, size: int,
                    timestamp: int, want_line: bool) -> tuple:
        """An L1 miss: ``(line bytes, line state, latency)``.  An
        instruction fetch fills a tag only and wants no bytes."""
        line, latency = self.engine.read_access(tile, address, size,
                                                timestamp)
        return (bytes(line.data) if want_line else None,
                line.state.value, latency)

    def memory_write(self, tile: TileId, address: int, size: int,
                     timestamp: int) -> tuple:
        """An L1D write miss, or a store to a line held S or E."""
        line, latency = self.engine.write_access(tile, address, size,
                                                 timestamp)
        return bytes(line.data), line.state.value, latency

    def _apply_casts(self, casts: List[tuple]) -> None:
        """Apply the casts a frame carried, in the order they were
        issued, before the frame's own work."""
        handlers = self._kernel_handlers
        for method, args in casts:
            handlers[method](*args)

    # -- results -------------------------------------------------------------

    def _before_results(self) -> None:
        """Fold every worker's state back into the coordinator.

        Telemetry first (the drained events and histogram states),
        then the flat counter trees; the bus closes — rendering file
        sinks from the fully merged stream — right after this hook.
        """
        for batch in self.cluster.collect_telemetry():
            merge_batch(self.telemetry, self.stats, batch)
        channel = self._channel(EventCategory.WORKER)
        if channel is not None:
            for index in self.cluster.workers():
                channel.emit("worker_stop", None, 0, {"worker": index})
        for flat in self.cluster.collect_stats(self._l1_notes_for):
            self.stats.add_flat(flat)
        if self.profiler is not None:
            self._worker_host_scopes = {
                batch.worker: batch.scopes
                for batch in self.cluster.collect_host_stats()}
