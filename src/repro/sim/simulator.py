"""The Simulator: assembles all subsystems and runs a target program.

One :class:`Simulator` instance is one simulation of one application on
one target architecture over one (simulated) host cluster.  It doubles
as the *kernel* object the interpreters call back into for spawning
threads, charging host costs, reaching the MCP, and waking blocked
threads.
"""

from __future__ import annotations

from typing import (Any, Callable, ContextManager, Dict, List, Optional,
                    Tuple, TYPE_CHECKING)

from repro.common import restore_slots
from repro.common.config import SimulationConfig
from repro.common.ids import ProcessId, ThreadId, TileId
from repro.common.rng import RngStreams
from repro.common.stats import StatGroup
from repro.distrib.errors import ProgramTransportError
from repro.distrib.wire import (kernel_calls_base, make_program_ref,
                                program_key)
from repro.frontend.interpreter import ThreadInterpreter
from repro.host.cluster import ClusterLayout
from repro.host.costmodel import HostCostModel
from repro.host.scheduler import Scheduler
from repro.memory.address import AddressSpace
from repro.memory.allocator import DynamicMemoryManager
from repro.memory.backing import BackingStore
from repro.memory.coherence import CoherenceEngine
from repro.memory.controller import MemoryController
from repro.network.interface import NetworkFabric
from repro.profile.instrument import installed
from repro.profile.timers import create_profiler
from repro.sim.results import SimulationResult
from repro.sync.model import create_sync_model
from repro.system.lcp import create_lcps
from repro.system.mcp import MCP_TILE, MasterControlProgram
from repro.telemetry.bus import create_bus
from repro.telemetry.events import EventCategory
from repro.transport.message import MessageKind
from repro.transport.transport import Transport

if TYPE_CHECKING:
    from repro.memory.miss_classifier import MissClassifier
    from repro.telemetry.registry import MetricsRegistry

#: Synthetic code placement: each distinct program gets a 64 KB region.
_CODE_REGION_BYTES = 64 * 1024


class Simulator(kernel_calls_base("inproc")):
    """One fully wired simulation instance; as the kernel, it serves
    each row of :data:`~repro.distrib.wire.KERNEL_CALLS` as a method."""

    # The kernel the interpreters read per op, so slotted like them.
    __slots__ = ("config", "rngs", "stats", "layout", "telemetry",
                 "sanitizers", "flight", "_span_emitter", "_run_span",
                 "cost_model", "sync_model", "scheduler", "transport",
                 "fabric", "space", "backing", "classifier", "engine",
                 "controllers", "allocator", "mcp", "lcps", "interpreters",
                 "_code_bases", "skew_trace", "metrics", "recoveries",
                 "exec_functional", "sample_controller", "_ckpt_store",
                 "host_profile", "_worker_host_scopes", "profiler")

    def __init__(self, config: SimulationConfig) -> None:
        config.validate()
        self.config = config
        self.rngs = RngStreams(config.seed)
        self.stats = StatGroup("sim")
        self.layout = ClusterLayout(config.num_tiles, config.host)

        # Host-side observers first: every component below resolves
        # its telemetry channels at construction, and ``channel()``
        # honours the observer mask.
        self._arm_observers()
        sync_channel = self._channel(EventCategory.SYNC)

        # Host platform.
        self.cost_model = HostCostModel(
            config.host, rng=self.rngs.stream("host_jitter"))
        self.sync_model = create_sync_model(
            config.sync, self.stats.child("sync"),
            self.rngs.stream("lax_p2p"), telemetry=sync_channel)
        self.scheduler = Scheduler(
            self.layout, self.cost_model, self.sync_model,
            self.stats.child("scheduler"),
            quantum_instructions=config.host.quantum_instructions,
            rng=self.rngs.stream("scheduler"),
            telemetry=self.telemetry)
        # Communication.
        self.transport = self._make_transport()
        self._arm_transport()
        self.fabric = NetworkFabric(config.num_tiles, config.network,
                                    self.transport,
                                    self.stats.child("network"),
                                    telemetry=self.telemetry)

        # Memory system.
        line_bytes = config.memory.l2.line_bytes
        self.space = AddressSpace(config.num_tiles, line_bytes)
        self.backing = BackingStore(line_bytes)
        self.classifier: Optional[MissClassifier] = None
        if config.memory.classify_misses:
            from repro.memory.miss_classifier import MissClassifier
            self.classifier = MissClassifier(
                config.num_tiles, line_bytes,
                self.stats.child("miss_classes"))
        self.engine = CoherenceEngine(
            config.num_tiles, config.memory, self.space, self.backing,
            self.fabric, config.core.clock_hz, self.stats.child("memory"),
            self.classifier, telemetry=self.telemetry)
        self.controllers: List[MemoryController] = [
            MemoryController(TileId(t), self.engine, self.cost_model.codes,
                             self.stats.child(f"mc{t}"))
            for t in range(config.num_tiles)]

        # System layer.
        self.allocator = DynamicMemoryManager(self.space)
        self.mcp = MasterControlProgram(
            config.num_tiles, self.allocator, self._wake_thread,
            self.stats.child("mcp"), telemetry=self.telemetry)
        self.lcps = create_lcps(self.layout, self.stats.child("system"))

        # Threads.
        self.interpreters: Dict[TileId, Any] = {}
        self._code_bases: Dict[Any, int] = {}

        # What the boundary stages accumulate rides the snapshot; the
        # stages themselves are armed below.  ``skew_trace`` holds the
        # (mean, +dev, -dev) samples of Figure 7, ``metrics`` the
        # counter time-series.
        self.skew_trace: List[Tuple[float, float, float]] = []
        self.metrics: Optional[MetricsRegistry] = None

        # Recovery log: one dict per crash-restart cycle performed by
        # the fault-tolerance driver (:mod:`repro.ckpt.recovery`);
        # empty on every undisturbed run.
        self.recoveries: List[Dict[str, Any]] = []

        # Sampling (config.sample): functional fast-forward and
        # interval sampling (:mod:`repro.sample`).  The controller is a
        # boundary stage, so execution mode only ever changes between
        # quanta — the same consistency boundary checkpoints use.
        self.exec_functional = False
        self.sample_controller = None
        if config.sample.enabled:
            from repro.sample.controller import SampleController
            self.sample_controller = SampleController(self, config.sample)
            if config.sample.ff_until > 0:
                self.set_execution_mode("functional")

        self._arm_boundary()

    # -- arming: host-side wiring, lives outside the snapshot ---------------------
    #
    # ``__init__`` and :meth:`_after_restore` run the same two functions,
    # so a fresh and a restored simulator of one config cannot disagree
    # about what they have attached (DESIGN.md §3).

    def _arm_observers(self) -> None:
        """Bus and trace sinks, sanitizers, flight ring, run span,
        host profiler.

        All ``None`` when not configured — every instrumented
        component then resolves a ``None`` channel and the hot paths
        stay a single attribute test.  Purely observational: nothing
        here consumes RNG draws or touches simulated time.
        """
        config = self.config
        self.telemetry = create_bus(config.telemetry)
        # Host profiling (``--profile``) reads host clocks only; its
        # timers go around the layers for the length of a run
        # (:meth:`_running`), so nothing is wrapped while it is off.
        self.profiler = create_profiler(config.profile)
        self.host_profile: Optional[Dict[str, Any]] = None
        self._worker_host_scopes: Optional[Dict[int, Any]] = None

        # Sanitizers (``--sanitize``) and the crash flight recorder
        # (``--flight-dir``) ride the bus as observers; with tracing
        # off they get a mask-0 bus that records nothing, so neither
        # the trace nor the results change either way.
        self.sanitizers = None
        if config.check.sanitize:
            from repro.check.sanitize import Sanitizers
            self.sanitizers = Sanitizers(config.num_tiles,
                                         self._observer_bus())
        self.flight = None
        if config.telemetry.flight_dir:
            from repro.obs.flight import arm_flight_recorder
            self.telemetry, self.flight = arm_flight_recorder(
                self.telemetry)

        # Run-level span (:mod:`repro.obs.spans`): when a trace id was
        # propagated into this config (e.g. by the serve daemon at job
        # assignment), the run stamps its lifecycle onto that job's
        # span tree.
        self._span_emitter = None
        self._run_span = ""
        if config.telemetry.trace_id and self.telemetry is not None:
            from repro.obs.spans import SpanEmitter
            self._span_emitter = SpanEmitter(
                self._channel(EventCategory.OBS),
                config.telemetry.trace_id,
                parent=config.telemetry.span_parent)
        self._configure_trace_sinks()

    def _observer_bus(self):
        """The bus observers attach to: mask-0 when tracing is off."""
        if self.telemetry is None:
            from repro.telemetry.bus import TelemetryBus
            self.telemetry = TelemetryBus(0)
        return self.telemetry

    def _channel(self, category: EventCategory):
        if self.telemetry is None:
            return None
        return self.telemetry.channel(category)

    def _arm_boundary(self) -> None:
        """Channels of the stage state, checkpoint store, and the
        scheduler's boundary stages (order: ``host.scheduler.
        STAGE_ORDER``).  The mp backend extends this with ``net``;
        serve adds ``preempt`` by name."""
        config = self.config
        scheduler = self.scheduler
        if config.trace_clock_skew and config.skew_sample_period:
            from repro.telemetry.skew import ClockSkewSampler
            scheduler.set_stage(
                "skew", config.skew_sample_period,
                ClockSkewSampler(self.skew_trace,
                                 self._channel(EventCategory.SYNC)))
        interval = config.telemetry.metrics_interval
        if interval > 0:
            if self.metrics is None:
                from repro.telemetry.registry import MetricsRegistry
                self.metrics = MetricsRegistry(self.stats, interval)
            self.metrics.channel = self._channel(EventCategory.METRICS)
            scheduler.set_stage("metrics", interval,
                                self._sample_metrics)
        if self.sample_controller is not None:
            self.sample_controller.channel = self._channel(
                EventCategory.SAMPLE)
            scheduler.set_stage("sample", 1, self.sample_controller)
        # Checkpointing (``--ckpt-dir``): a store when enabled, given
        # the config's dict once for all its manifests, and a stage when
        # a cadence is configured.
        self._ckpt_store = None
        if config.ckpt.enabled:
            from repro.ckpt.store import CheckpointStore
            self._ckpt_store = CheckpointStore(
                config.ckpt.dir, keep=config.ckpt.keep,
                config=config.to_dict())
            if config.ckpt.every > 0:
                scheduler.set_stage("ckpt", config.ckpt.every,
                                    lambda _s: self.save_checkpoint())

    def _arm_transport(self) -> None:
        """Queued sends charge through the hook, legs (``account``) call
        the cost model itself; neither of the last two is pickled."""
        transport = self.transport
        transport.delivery_hook = self._charge_message
        transport.charge_leg = self.cost_model.charge_message
        transport.sanitizers = self.sanitizers

    def _make_transport(self) -> Transport:
        """Build the message fabric; overridden by the mp backend."""
        return Transport(self.layout, self.stats.child("transport"))

    def _configure_trace_sinks(self) -> None:
        """Give file sinks the layout facts only the simulator knows."""
        if self.telemetry is None or not self.telemetry.sinks:
            return  # no sink to adjust, so no sink module to import
        from repro.telemetry.chrome import ChromeTraceSink
        tile_process = {
            t: int(self.layout.process_of_tile(TileId(t)))
            for t in range(self.config.num_tiles)}
        for sink in self.telemetry.sinks:
            if isinstance(sink, ChromeTraceSink):
                sink.clock_hz = self.config.core.clock_hz
                sink.tile_process = tile_process

    def _sample_metrics(self, scheduler: Scheduler) -> None:
        """``metrics`` stage: snapshot the stats tree at "now".

        "Now" for a whole-simulation snapshot is the frontier of
        simulated progress — the maximum live thread clock.
        """
        assert self.metrics is not None
        clocks = scheduler.thread_clocks()
        self.metrics.sample(int(max(clocks)) if clocks else 0)

    __setstate__ = restore_slots

    # -- kernel interface (called by the interpreters) ---------------------------

    @property
    def charge_log(self) -> List[int]:
        """Where an interpreter and its controller log the host charges
        of a quantum (:attr:`HostCostModel.codes`, priced in process)."""
        return self.cost_model.codes

    def code_base(self, program: Callable[..., Any]) -> int:
        """Stable synthetic code address for a program function, keyed
        as mp keys it so a resume in a fresh process finds it (by id if
        it cannot be pickled, when mp cannot run it either)."""
        try:
            key = program_key(make_program_ref(program))
        except ProgramTransportError:
            key = id(program)
        return self._code_base_for(key)

    def _code_base_for(self, key: Any) -> int:
        """Allocate (once) a 64 KB code region for a program identity.

        Regions are handed out in first-request order, which equals
        thread spawn order — the property the distributed backend relies
        on to reproduce identical code addresses from program *keys*
        (pickled identities) instead of local object ids.
        """
        base = self._code_bases.get(key)
        if base is None:
            base = (self.space.CODE_BASE
                    + len(self._code_bases) * _CODE_REGION_BYTES)
            self._code_bases[key] = base
        return base

    def spawn_thread(self, program: Callable[..., Any], args: tuple,
                     parent_tile: Optional[TileId],
                     parent_clock: int) -> ThreadId:
        """The spawn protocol: caller -> MCP -> owning LCP -> new thread,
        which :meth:`_start_thread` starts where the backend runs it."""
        tile = self.mcp.threads.allocate_tile()
        self.mcp.threads.register_spawn(tile)
        process = self.layout.process_of_tile(tile)
        lcp = self.lcps[ProcessId(int(process))]
        if not lcp.initialized:
            lcp.initialize_process()
        lcp.handle_spawn(tile)
        # MCP -> LCP control hop plus host thread creation.
        self.fabric.transfer(MCP_TILE, tile, MessageKind.SYSTEM, 64,
                             parent_clock)
        self.scheduler.charge(self.config.host.thread_spawn_cost)
        task = self._start_thread(tile, program, args, parent_clock)
        self.interpreters[tile] = task
        self.scheduler.add_thread(
            task, start_host_time=self.scheduler.current_host_time())
        return ThreadId(int(tile))

    def _start_thread(self, tile: TileId, program: Any, args: tuple,
                      clock: int) -> Any:
        """The new thread's scheduler task: an interpreter in this
        process, which keeps a program reference for snapshots."""
        ref = program if hasattr(program, "resolve") else None
        if ref is not None:
            program = ref.resolve()
        interpreter = ThreadInterpreter(self, tile, program, args, clock,
                                        self.code_base(program))
        if ref is not None:
            interpreter.program_ref = ref
        return interpreter

    def thread_finished(self, tile: TileId, final_clock: int) -> None:
        self.mcp.threads.on_thread_exit(tile, final_clock)

    def wake_scheduler(self, tile: TileId) -> None:
        """Poke a possibly-blocked thread to re-check its condition."""
        if tile in self.interpreters:
            self.scheduler.wake(tile)

    def interface(self, tile: TileId):
        """Tile ``tile``'s endpoint on the network fabric."""
        return self.fabric.interface(tile)

    # -- internal hooks -------------------------------------------------------------

    def _wake_thread(self, tile: TileId, timestamp: int) -> None:
        """System-layer wake: deliver the timestamp, then unblock."""
        interpreter = self.interpreters.get(tile)
        if interpreter is None:
            return
        # The wake notification travels MCP -> tile on the system net.
        self.fabric.transfer(MCP_TILE, tile, MessageKind.SYSTEM, 32,
                             timestamp)
        interpreter.notify_wake(timestamp)
        self.scheduler.wake(tile)

    # -- execution mode (repro.sample) ---------------------------------------

    def set_execution_mode(self, mode: str) -> None:
        """Switch between ``detailed`` and ``functional`` execution.

        Functional mode keeps every architectural state transition —
        caches, directory, backing store, message delivery — on the
        single shared code path while bypassing the timing layers: the
        cores retire at unit cost (a quantum runs against
        :class:`~repro.core.perf_model.UnitCostCoreModel`), network and
        DRAM latencies are zero and host-time charges are skipped.
        Callers must only flip the mode between scheduler quanta (the
        sample controller runs as a boundary stage, which guarantees
        exactly that); the mp backend sends the flag read here with
        every quantum, so its workers hold no mode to keep in step.
        """
        functional = mode == "functional"
        if functional == self.exec_functional:
            return
        self.exec_functional = functional
        self.engine.functional = functional
        self.fabric.functional = functional
        self.scheduler.functional = functional

    def _charge_message(self, message, locality) -> None:
        if self.sanitizers is not None:
            self.sanitizers.on_message(message)
        # Application-visible traffic blocks the waiting host thread for
        # the wire latency.  The simulator's own control plane (SYSTEM:
        # spawn, futex, syscall forwarding) is pipelined in Graphite and
        # charged CPU cost only — otherwise a 1024-thread spawn loop
        # would serialize a thousand TCP round trips through one core.
        self.cost_model.charge_message(
            locality, message.size_bytes,
            message.kind is not MessageKind.SYSTEM)

    def _before_results(self) -> None:
        """Hook run after the engine finishes, before the stats snapshot.

        The distributed backend overrides this to fold worker-local
        statistics back into the coordinator's tree.
        """

    # -- running --------------------------------------------------------------------------

    def run(self, main_program: Any,
            args: tuple = ()) -> SimulationResult:
        """Execute ``main_program(ctx, *args)`` to completion.

        ``main_program`` is either a program callable or a *program
        reference* (an object with a ``resolve()`` method, e.g.
        :class:`repro.distrib.wire.WorkloadRef`) that builds one.
        """
        with self._running(resumed=False):
            self._begin_run_span(resumed=False)
            self.spawn_thread(main_program, args, None, 0)
            return self._run_to_completion()

    def _running(self, resumed: bool) -> ContextManager[None]:
        """What lasts exactly as long as a run or a resumed run does:
        the host profiler's timers around each layer's entry points
        (and, in the mp backend, the worker fleet)."""
        return installed(self.profiler, self.config.distrib.backend)

    def _begin_run_span(self, resumed: bool) -> None:
        if self._span_emitter is None:
            return
        self._run_span = self._span_emitter.begin(
            "sim.run", resumed=resumed,
            backend=self.config.distrib.backend,
            tiles=self.config.num_tiles)

    def resume_run(self) -> SimulationResult:
        """Continue a checkpoint-restored simulation to completion.

        The scheduler's state (core clocks, run queues, turn counter)
        and every thread's position were reinstated from the snapshot,
        so re-entering the scheduler loop picks up exactly where the
        checkpointed run left off; the result is byte-identical to the
        uninterrupted run's.
        """
        with self._running(resumed=True):
            self._begin_run_span(resumed=True)
            return self._run_to_completion()

    def _run_to_completion(self) -> SimulationResult:
        try:
            return self._complete()
        finally:
            self._release()

    def _complete(self) -> SimulationResult:
        report = self.scheduler.run()
        self._before_results()
        if self.profiler is not None:
            self.profiler.stop_run()
        if self._span_emitter is not None and self._run_span:
            final = max((i.core.cycles
                         for i in self.interpreters.values()),
                        default=0)
            self._span_emitter.end(self._run_span, "sim.run", t=final,
                                   outcome="done",
                                   turns=self.scheduler.turns)
            self._run_span = ""
        if self.telemetry is not None:
            # Chrome sinks render host-profiler tracks alongside the
            # target timeline; hand them the scope data before close.
            self._hand_profile_to_sinks()
            # Flush/render the sinks; the in-memory ordered stream stays
            # readable for tests and post-run analysis.
            self.telemetry.close()

        thread_cycles = {int(t): i.core.cycles
                         for t, i in self.interpreters.items()}
        thread_starts = {int(t): i.start_clock
                         for t, i in self.interpreters.items()}
        thread_instructions = {int(t): i.core.instruction_count
                               for t, i in self.interpreters.items()}
        startup = self.cost_model.process_startup(
            self.layout.num_processes)
        main_interp = self.interpreters.get(TileId(0))
        result = SimulationResult(
            simulated_cycles=max(thread_cycles.values()),
            wall_clock_seconds=report.wall_clock_seconds + startup,
            native_seconds=self._native_seconds(thread_instructions),
            thread_cycles=thread_cycles,
            thread_start_cycles=thread_starts,
            thread_instructions=thread_instructions,
            counters=self.stats.to_dict(),
            core_busy_seconds=report.core_busy_seconds,
            skew_trace=list(self.skew_trace),
            miss_breakdown=(
                {t.value: n for t, n in self.classifier.counts().items()}
                if self.classifier is not None else {}),
            main_result=main_interp.result if main_interp else None,
            recoveries=list(self.recoveries),
        )
        if self.sample_controller is not None:
            result.sample = self.sample_controller.summary(result)
        if self.profiler is not None:
            from repro.profile.report import build_profile
            self.host_profile = build_profile(
                self.profiler, result, self.config.distrib.backend,
                worker_scopes=self._worker_host_scopes)
        return result

    def _release(self) -> None:
        """Cut every edge from the run's parts back to the simulator,
        once the run ends, normally or by unwinding (``FastForwardDone``,
        ``JobPreempted``, a crash the recovery loop restarts from).
        Uncut, a finished simulator is a cycle only a full collection
        frees; cut, a dropped one is a tree that reference counting
        frees at once (DESIGN.md §3 "A finished run is a tree").  What
        callers read after a run stays, stage names included; the
        simulator cannot run again."""
        for task in self.interpreters.values():
            task.kernel = None
        self.cost_model.scheduler = None
        self.sync_model.scheduler = None
        self.transport.delivery_hook = self.transport.charge_leg = None
        self.mcp.disarm_wakes()
        self.scheduler.disarm_stages()
        if self.sample_controller is not None:
            self.sample_controller.simulator = None

    # -- checkpointing ---------------------------------------------------------------------

    def save_checkpoint(self) -> str:
        """Write one consistent snapshot; returns its directory.

        Snapshotting is purely observational — it pickles the object
        graph without mutating it — so a checkpointing run stays
        byte-identical to a non-checkpointing one.
        """
        if self._ckpt_store is None:
            from repro.common.errors import CheckpointError
            raise CheckpointError(
                "checkpointing is not enabled (set config.ckpt.dir)")
        path = self._ckpt_store.write(
            turn=self.scheduler.turns,
            backend=self.config.distrib.backend,
            blobs=self._checkpoint_blobs())
        if self._span_emitter is not None and self._run_span:
            self._span_emitter.note(self._run_span, "checkpoint",
                                    turn=self.scheduler.turns)
        return path

    def _checkpoint_blobs(self) -> Dict[str, Any]:
        """Blobs of one snapshot (:data:`repro.ckpt.store.Blob`): this
        simulator, pickled straight into its file, its config from the
        dict built when the run was armed; the mp backend adds worker
        shards."""
        from repro.ckpt.snapshot import snapshot_to
        store = self._ckpt_store
        pinned = None if store is None else (
            self.config, SimulationConfig.state_from(store.config))
        return {"coordinator": lambda file: snapshot_to(self, file, pinned)}

    def _after_restore(self,
                       config: Optional[SimulationConfig] = None) -> None:
        """Re-arm a freshly unpickled simulator (see ``load_checkpoint``).

        The snapshot excised every host-side observer to ``None`` and
        dropped the boundary stages and thread generators.  This runs
        the same :meth:`_arm_observers` / :meth:`_arm_boundary` a fresh
        build runs — under ``config`` when one is given in place of
        the checkpointed run's — and replays every live thread's
        generator back to its position.  Component-level channels stay
        excised: the restored subsystems run unobserved, so the
        telemetry syscall tracer (its channel is gone) is unwrapped.
        """
        if config is not None:
            self.config = config
        self._arm_observers()
        self._arm_transport()
        syscalls = self.mcp.syscalls
        inner = getattr(syscalls, "_inner", None)
        if inner is not None:
            self.mcp.syscalls = inner
        for interpreter in self.interpreters.values():
            rebuild = getattr(interpreter, "rebuild_generator", None)
            if rebuild is not None:
                rebuild()
        self._arm_boundary()

    def _hand_profile_to_sinks(self) -> None:
        """Give Chrome sinks the host-profiler data (pre-close)."""
        if self.profiler is None or self.telemetry is None:
            return
        from repro.telemetry.chrome import ChromeTraceSink
        payload = {"run_ns": self.profiler.run_ns,
                   "scopes": self.profiler.scope_dict(),
                   "workers": self._worker_host_scopes or {}}
        for sink in self.telemetry.sinks:
            if isinstance(sink, ChromeTraceSink):
                sink.host_profile = payload

    def _native_seconds(self,
                        thread_instructions: Dict[int, int]) -> float:
        """Model the native run: uninstrumented, one 8-core machine.

        Threads are striped over the native machine's cores; the native
        run-time is the busiest core's instruction time (no simulation
        overheads, no instrumentation multiplier).
        """
        cores = self.config.host.cores_per_machine
        busy = [0.0] * cores
        for tile, instructions in sorted(thread_instructions.items()):
            busy[tile % cores] += self.cost_model.native_instructions(
                instructions)
        return max(busy) if busy else 0.0
