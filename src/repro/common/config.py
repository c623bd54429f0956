"""Runtime configuration for a Graphite simulation.

Graphite is configured entirely through run-time parameters (paper §2):
every model is a swappable module selected and parameterized here.  The
defaults reproduce Table 1 of the paper:

======================  =====================================================
Clock frequency         1 GHz
L1 caches               private, 32 KB per tile, 64 B lines, 8-way, LRU
L2 cache                private, 3 MB per tile, 64 B lines, 24-way, LRU
Cache coherence         full-map directory based MSI
DRAM bandwidth          5.13 GB/s (total off-chip, split across controllers)
Interconnect            mesh network
======================  =====================================================
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.common.errors import ConfigError
from repro.common.units import DEFAULT_CLOCK_HZ, GB, KB, MB

#: Network model registry keys (see :mod:`repro.network.model`).
NETWORK_MODELS = ("magic", "mesh", "mesh_contention", "ring", "torus")

#: Directory organisations (see :mod:`repro.memory.directory`).
DIRECTORY_TYPES = ("full_map", "limited", "limitless")

#: Synchronization models (paper §3.6).
SYNC_MODELS = ("lax", "lax_barrier", "lax_p2p")

#: Config sections that are *purely observational*: each is guaranteed
#: (and tested) to leave the :class:`~repro.sim.results.SimulationResult`
#: byte-identical whatever its value — telemetry/profiling/sanitizers
#: observe without consuming RNG draws or simulated time, checkpointing
#: snapshots without mutating, and both execution backends produce
#: identical metrics.  :meth:`SimulationConfig.content_hash` excludes
#: them so a cached result stays addressable when only observability
#: knobs (or a per-job checkpoint directory) differ.
OBSERVATIONAL_SECTIONS = ("distrib", "telemetry", "check", "profile",
                          "ckpt")

#: Config sections that are irrelevant to the *functional prefix* of a
#: run: during functional fast-forward (:mod:`repro.sample`) the core
#: timing models are bypassed (fixed unit cost), the network is
#: zero-latency and synchronization is magic, so two configs differing
#: only here reach ``sample.ff_until`` with byte-identical architectural
#: state.  :meth:`SimulationConfig.prefix_hash` excludes them (plus
#: per-tile core overrides, which are core timing too), which is what
#: lets the snapshot library share one fast-forwarded checkpoint across
#: sweep variants.  ``sync`` stays prefix-relevant: its constructed
#: state is part of the snapshot and is not reapplied at fork time.
PREFIX_IRRELEVANT_SECTIONS = ("core", "network", "sample")

#: Execution backends (see :mod:`repro.distrib`): ``inproc`` runs every
#: tile in the calling process (the reference engine); ``mp`` executes
#: the cluster layout on real OS processes — one worker per simulated
#: host process — with traffic over pipes.
EXECUTION_BACKENDS = ("inproc", "mp")

#: Fields deleted from the config, by dotted name, with what each
#: became.  Checkpoints, library manifests and serve submissions carry
#: the whole config dict of the code that wrote them, so
#: :meth:`SimulationConfig.from_dict` drops exactly these keys, each in
#: its own section, and still rejects any other unknown key.  To retire
#: a field, add its row here and delete the field: the committed corpus
#: (``tests/corpus/``) keeps the old keys and is the test.
RETIRED_FIELDS: Dict[str, str] = {
    "distrib.straggler_fraction": "no straggler watchdog; the rebalance "
                                  "policy reads the busy signal",
    "distrib.rebalance_threshold": "SlowestWorkerPolicy's threshold, 4.0",
    "telemetry.trace_format": "chrome for a .json trace path, else jsonl",
    "telemetry.flight_events": "a flight ring of 256 events",
    "ckpt.backoff_factor": "the restart delay doubles per attempt",
    "profile.top_n": "12 subsystem rows",
}


def content_key(payload: Any) -> str:
    """sha256 (hex) of ``payload``'s canonical JSON: one key in every
    process and under every ``PYTHONHASHSEED``.  The key function of
    config hashes, result keys and snapshot-library keys alike."""
    return hashlib.sha256(json.dumps(
        payload, sort_keys=True,
        separators=(",", ":")).encode("utf-8")).hexdigest()


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


@dataclass
class CacheConfig:
    """Geometry and policy of one cache level."""

    size_bytes: int = 32 * KB
    line_bytes: int = 64
    associativity: int = 8
    #: Access latency charged by the performance model, in target cycles.
    access_latency: int = 1
    #: Whether this level exists at all (Figure 8 disables the L1s).
    enabled: bool = True

    @property
    def num_sets(self) -> int:
        return self.size_bytes // (self.line_bytes * self.associativity)

    def validate(self, name: str = "cache") -> None:
        _require(self.line_bytes > 0 and (self.line_bytes & (self.line_bytes - 1)) == 0,
                 f"{name}: line size must be a positive power of two")
        _require(self.associativity >= 1, f"{name}: associativity must be >= 1")
        _require(self.size_bytes % (self.line_bytes * self.associativity) == 0,
                 f"{name}: size must be a multiple of line * associativity")
        _require(self.num_sets >= 1, f"{name}: must have at least one set")
        _require(self.access_latency >= 0, f"{name}: latency must be >= 0")


@dataclass
class DramConfig:
    """One DRAM controller slice; the paper places one at every tile."""

    #: Total off-chip bandwidth (Table 1), statically partitioned across
    #: all tiles' controllers (paper §4.4, Cache Coherence Study).
    total_bandwidth_bytes_per_s: float = 5.13 * GB
    #: Fixed access latency in target cycles (row access + channel).
    access_latency: int = 100
    #: Queue-model window size scale factor: window = factor * num_tiles.
    progress_window_factor: int = 1

    def validate(self) -> None:
        _require(self.total_bandwidth_bytes_per_s > 0,
                 "dram: bandwidth must be positive")
        _require(self.access_latency >= 0, "dram: latency must be >= 0")


@dataclass
class MemoryConfig:
    """Memory subsystem: cache hierarchy, coherence, DRAM."""

    l1i: CacheConfig = field(default_factory=lambda: CacheConfig(
        size_bytes=32 * KB, line_bytes=64, associativity=8, access_latency=1))
    l1d: CacheConfig = field(default_factory=lambda: CacheConfig(
        size_bytes=32 * KB, line_bytes=64, associativity=8, access_latency=1))
    l2: CacheConfig = field(default_factory=lambda: CacheConfig(
        size_bytes=3 * MB, line_bytes=64, associativity=24, access_latency=8))
    dram: DramConfig = field(default_factory=DramConfig)

    #: Coherence protocol: "msi" (the paper's baseline) or "mesi"
    #: (adds the Exclusive state: an uncontended read miss returns the
    #: line exclusively, so a subsequent store needs no upgrade round
    #: trip — the classic private read-then-write optimisation).
    protocol: str = "msi"
    #: Directory organisation: full_map | limited (Dir_iNB) | limitless.
    directory_type: str = "full_map"
    #: Hardware sharer pointers for limited/limitless directories (the
    #: ``i`` in Dir_iNB and LimitLESS(i)).
    directory_max_sharers: int = 4
    #: Software-trap latency for LimitLESS overflow handling, in cycles.
    limitless_trap_latency: int = 100
    #: Directory lookup latency in cycles.
    directory_latency: int = 10
    #: Forward clean-shared lines cache-to-cache on read misses instead
    #: of re-reading the home DRAM controller.  On: the default (modern
    #: directory protocols; required for the Figure 9 scaling knee).
    #: Off: every S-state read pays the home controller's bandwidth
    #: slice — the ablation showing why forwarding matters.
    forward_shared_reads: bool = True
    #: Track per-line miss classification (needed for Figure 8; costs
    #: memory, so off by default).
    classify_misses: bool = False

    def validate(self) -> None:
        self.l1i.validate("l1i")
        self.l1d.validate("l1d")
        self.l2.validate("l2")
        self.dram.validate()
        _require(self.protocol in ("msi", "mesi"),
                 f"memory: unknown protocol {self.protocol!r}")
        _require(self.directory_type in DIRECTORY_TYPES,
                 f"memory: unknown directory type {self.directory_type!r}")
        _require(self.directory_max_sharers >= 1,
                 "memory: directory_max_sharers must be >= 1")
        if self.l1d.enabled or self.l1i.enabled:
            _require(self.l1d.line_bytes == self.l2.line_bytes,
                     "memory: L1 and L2 line sizes must match")


@dataclass
class CoreConfig:
    """Core performance model parameters (paper §3.1).

    Two swappable timing models are provided, selected by ``model``:
    ``in_order`` (the paper's default: in-order pipeline with an
    out-of-order memory interface via store buffer / load queue) and
    ``out_of_order`` (a window-based OoO model demonstrating the
    paper's claim that the core model can differ drastically from the
    in-order, sequentially consistent functional simulator).
    """

    clock_hz: int = DEFAULT_CLOCK_HZ
    #: Timing model: "in_order" or "out_of_order".
    model: str = "in_order"
    #: OoO model: reorder-buffer window entries.
    rob_entries: int = 64
    #: OoO model: instructions dispatched per cycle.
    dispatch_width: int = 2
    #: Per-class instruction costs in cycles.  Classes not listed cost 1.
    instruction_costs: Dict[str, int] = field(default_factory=lambda: {
        "generic": 1,
        "ialu": 1,
        "imul": 3,
        "idiv": 18,
        "fpu_add": 3,
        "fpu_mul": 5,
        "fpu_div": 30,
        "branch": 1,
        "jmp": 1,
    })
    #: Branch misprediction penalty, cycles.
    branch_mispredict_penalty: int = 14
    #: Two-bit saturating-counter predictor table size (entries).
    branch_predictor_entries: int = 1024
    #: Store buffer depth; stores retire without stalling until full.
    store_buffer_entries: int = 8
    #: Outstanding loads the load unit tracks.
    load_queue_entries: int = 8

    def validate(self) -> None:
        _require(self.clock_hz > 0, "core: clock must be positive")
        _require(self.model in ("in_order", "out_of_order"),
                 f"core: unknown model {self.model!r}")
        _require(self.rob_entries >= 1, "core: rob_entries must be >= 1")
        _require(self.dispatch_width >= 1,
                 "core: dispatch_width must be >= 1")
        _require(self.branch_predictor_entries > 0,
                 "core: predictor must have entries")
        _require(self.store_buffer_entries >= 1,
                 "core: store buffer must hold >= 1 entry")
        for name, cost in self.instruction_costs.items():
            _require(cost >= 0, f"core: cost of {name} must be >= 0")


@dataclass
class NetworkConfig:
    """On-chip network models (paper §3.3).

    Graphite keeps several distinct models keyed by traffic class; system
    traffic always uses the zero-delay ``magic`` model so it cannot
    perturb results.
    """

    #: Model for application message-passing traffic.
    user_model: str = "mesh"
    #: Model for memory-system traffic (commonly a separate physical
    #: network in tiled multicores).
    memory_model: str = "mesh"
    #: Model for simulator-internal system traffic — always magic.
    system_model: str = "magic"
    #: Per-hop latency of the mesh, cycles.
    hop_latency: int = 2
    #: Link width in bytes per cycle (serialisation delay = size/width).
    link_bytes_per_cycle: int = 8
    #: Fixed packet processing overhead at source and destination.
    endpoint_latency: int = 2
    #: Contention model: window size factor for global-progress estimate.
    progress_window_factor: int = 1

    def validate(self) -> None:
        for name in (self.user_model, self.memory_model, self.system_model):
            _require(name in NETWORK_MODELS,
                     f"network: unknown model {name!r}")
        _require(self.hop_latency >= 0, "network: hop latency must be >= 0")
        _require(self.link_bytes_per_cycle > 0,
                 "network: link width must be positive")


@dataclass
class SyncConfig:
    """Synchronization model selection and tuning (paper §3.6)."""

    model: str = "lax"
    #: LaxBarrier: barrier quantum in target cycles (paper uses 1000 for
    #: the accuracy studies).
    barrier_interval: int = 1000
    #: LaxP2P: maximum tolerated clock difference ("slack"), cycles.
    p2p_slack: int = 100_000
    #: LaxP2P: how often each tile initiates a random pairwise check.
    p2p_interval: int = 10_000

    def validate(self) -> None:
        _require(self.model in SYNC_MODELS,
                 f"sync: unknown model {self.model!r}")
        _require(self.barrier_interval > 0,
                 "sync: barrier interval must be positive")
        _require(self.p2p_slack > 0, "sync: slack must be positive")
        _require(self.p2p_interval > 0, "sync: interval must be positive")


@dataclass
class HostConfig:
    """The simulated host cluster (paper §4.1 testbed substitute).

    Models the paper's cluster of dual-quad-core Xeon machines on a
    Gigabit switch.  Wall-clock outputs are produced by the cost model in
    :mod:`repro.host.costmodel` using these parameters.
    """

    num_machines: int = 1
    cores_per_machine: int = 8
    #: Host processes participating in the simulation; by default one per
    #: machine, as in the paper's experiments.
    num_processes: Optional[int] = None
    #: Cost in host seconds of one natively executed target instruction
    #: (a 3.16 GHz Xeon X5460).
    native_instruction_cost: float = 1.0 / 3.16e9
    #: Multiplier on instruction cost when running under instrumentation
    #: (the DBT adds basic-block dispatch overhead).
    instrumentation_overhead: float = 30.0
    #: Host cost of a trap into a back-end model (memory/core/network).
    model_trap_cost: float = 25e-9
    #: Host cost of servicing a cache-hierarchy access model.
    memory_model_cost: float = 50e-9
    #: One-way message CPU costs by locality: the host cycles spent in
    #: the sender/receiver paths (queue ops, kernel TCP stack).  These
    #: consume host-core time.
    intra_process_message_cost: float = 0.3e-6
    inter_process_message_cost: float = 0.5e-6
    inter_machine_message_cost: float = 0.6e-6
    #: One-way message *latencies* by locality: wire/stack time during
    #: which the waiting host thread is blocked but its core is free to
    #: run other tile threads.  This is what lets Graphite overlap
    #: remote stalls with other tiles' simulation work.
    intra_process_message_latency: float = 0.0
    inter_process_message_latency: float = 1.0e-6
    inter_machine_message_latency: float = 3.0e-6
    #: Per-byte latency on top of the fixed cost (GbE ~ 1 Gb/s).
    inter_machine_byte_cost: float = 1.0e-9
    #: Fixed per-process start-up cost (sequential; limits Figure 5
    #: scaling at high machine counts).
    process_startup_cost: float = 0.00015
    #: Host cost of creating one target thread (MCP + LCP + pthread).
    thread_spawn_cost: float = 2e-6
    #: Relative stddev of multiplicative jitter applied to host costs;
    #: models OS noise and is the source of run-to-run variation.
    jitter: float = 0.02
    #: Scheduler quantum: target instructions a tile runs per turn.
    quantum_instructions: int = 2000

    def resolved_processes(self) -> int:
        return self.num_processes if self.num_processes else self.num_machines

    @property
    def total_cores(self) -> int:
        return self.num_machines * self.cores_per_machine

    def validate(self) -> None:
        _require(self.num_machines >= 1, "host: need at least one machine")
        _require(self.cores_per_machine >= 1,
                 "host: need at least one core per machine")
        procs = self.resolved_processes()
        _require(procs >= 1, "host: need at least one process")
        _require(procs >= self.num_machines,
                 "host: need at least one process per machine")
        # Box–Muller over 53-bit uniforms reaches |z| = 8.57: past 0.1 a
        # drawn cost factor 1 + z*jitter can be negative, mid-run.
        _require(0.0 <= self.jitter <= 0.1, "host: jitter must be in [0, 0.1]"
                 " (a larger one can draw a negative host cost)")
        _require(self.quantum_instructions >= 1,
                 "host: quantum must be >= 1 instruction")


@dataclass
class DistribConfig:
    """Distributed-execution backend selection and tuning.

    The ``mp`` backend (paper §3.5: one simulation spanning multiple
    host processes) forks one OS worker process per simulated host
    process and runs each tile's thread inside its owning worker; all
    cross-process traffic travels over pipes in the versioned wire
    format of :mod:`repro.distrib.wire`.  Results are byte-identical to
    the ``inproc`` reference engine.
    """

    #: Execution backend: ``inproc`` (default) or ``mp``.
    backend: str = "inproc"
    #: Seconds the coordinator waits for a worker frame before declaring
    #: the worker hung (surfaces as WorkerTimeoutError, not a hang).
    worker_timeout: float = 120.0
    #: Seconds allowed for orderly worker shutdown before termination.
    shutdown_timeout: float = 10.0
    #: Worker channel: ``pipe`` (forked children over socketpairs) or
    #: ``tcp`` (the multi-host transport); both length-prefixed sockets
    #: via :mod:`repro.net`.
    transport: str = "pipe"
    #: TCP bind address of the coordinator's listener (port 0 picks an
    #: ephemeral port; only meaningful with ``transport="tcp"``).
    listen: str = "127.0.0.1:0"
    #: Remote dial-ins (``repro worker --connect``) to wait for before
    #: the run starts.  0 means self-contained: the coordinator forks
    #: local workers that dial its own listener.
    expect_workers: int = 0
    #: Seconds to wait for the expected dial-ins at startup.
    connect_timeout: float = 60.0
    #: Live-migration policy: ``off`` or ``slowest`` (drain the worker
    #: with the largest ``quantum.run`` self-time delta into the least
    #: busy one; see :mod:`repro.net.rebalance`).
    rebalance: str = "off"
    #: Scheduler turns between policy evaluations.
    rebalance_every: int = 8
    #: Scripted drain: at this scheduler turn, migrate one worker's
    #: shard away (0 = never).  Deterministic hook for tests and the
    #: CI migration smoke; independent of the rebalance policy.
    drain_turn: int = 0
    #: Worker index to drain at ``drain_turn`` (-1 = highest index).
    drain_worker: int = -1

    def migration_capable(self) -> bool:
        """Can this run ever migrate a shard between workers?

        True for every TCP-transport run (workers may join or die) and
        for any run with a rebalance policy or scripted drain.  Workers
        use this to keep interpreter replay logs (the same logs
        checkpointing keeps) so their shards stay movable; keeping the
        log is observational and does not perturb simulated metrics.
        """
        return self.backend == "mp" and (
            self.transport == "tcp"
            or self.rebalance != "off"
            or self.drain_turn > 0)

    def needs_worker_busy_signal(self) -> bool:
        """True when the rebalance policy consumes per-worker
        ``quantum.run`` self-time."""
        return self.rebalance != "off"

    def validate(self) -> None:
        _require(self.backend in EXECUTION_BACKENDS,
                 f"distrib: unknown backend {self.backend!r} "
                 f"(choose from {EXECUTION_BACKENDS})")
        _require(self.worker_timeout > 0,
                 "distrib: worker_timeout must be positive")
        _require(self.shutdown_timeout > 0,
                 "distrib: shutdown_timeout must be positive")
        _require(self.transport in ("pipe", "tcp"),
                 f"distrib: unknown transport {self.transport!r} "
                 f"(choose from ('pipe', 'tcp'))")
        _require(self.expect_workers >= 0,
                 "distrib: expect_workers must be >= 0")
        _require(self.expect_workers == 0 or self.transport == "tcp",
                 "distrib: expect_workers requires transport='tcp'")
        _require(self.connect_timeout > 0,
                 "distrib: connect_timeout must be positive")
        _require(self.rebalance in ("off", "slowest"),
                 f"distrib: unknown rebalance policy "
                 f"{self.rebalance!r} (choose from ('off', 'slowest'))")
        _require(self.rebalance_every > 0,
                 "distrib: rebalance_every must be positive")
        _require(self.drain_turn >= 0,
                 "distrib: drain_turn must be >= 0")
        if self.transport == "tcp":
            from repro.net.listener import parse_address
            try:
                parse_address(self.listen)
            except ValueError as exc:
                _require(False, f"distrib: {exc}")


@dataclass
class TelemetryConfig:
    """Event tracing and metrics observability (see :mod:`repro.telemetry`).

    Disabled by default; a disabled run constructs no bus at all, so
    every instrumented hot path degenerates to one ``is not None``
    check.  Telemetry is purely observational — it never consumes RNG
    streams or alters timing — so simulated-cycle results are identical
    with tracing on or off.
    """

    enabled: bool = False
    #: Event categories to record; names from
    #: :class:`repro.telemetry.events.EventCategory` or ``"all"``.
    events: List[str] = field(default_factory=lambda: ["all"])
    #: Trace output file; ``None`` keeps events in memory only.  A
    #: ``.json`` path gets a Chrome trace, any other JSON lines.
    trace_path: Optional[str] = None
    #: Metrics-registry snapshot cadence in scheduler turns; 0 disables.
    metrics_interval: int = 0
    #: mp backend: worker flushes its event batch to the coordinator
    #: once this many events are pending.
    batch_events: int = 256
    #: Distributed-tracing context (:mod:`repro.obs.spans`): the trace
    #: id this run belongs to ("" = untraced) and the parent span id
    #: minted by the submitting process.  Pure propagation — carried
    #: through the serve protocol, the distrib wire and the net
    #: handshake, honoured only when telemetry is enabled.
    trace_id: str = ""
    span_parent: str = ""
    #: Crash flight recorder (:mod:`repro.obs.flight`): directory to
    #: dump forensics bundles into when a worker crashes or a protocol
    #: error kills a connection ("" = recorder off).  Works with
    #: telemetry otherwise disabled — the recorder rides a mask-0 bus
    #: as an observer, so the recorded trace and the simulated results
    #: are unchanged either way.
    flight_dir: str = ""

    def events_include(self, name: str) -> bool:
        """Whether the requested category set covers ``name``."""
        return "all" in self.events or name in self.events

    def validate(self) -> None:
        _require(self.metrics_interval >= 0,
                 "telemetry: metrics_interval must be >= 0")
        _require(self.batch_events >= 1,
                 "telemetry: batch_events must be >= 1")
        # Resolves category names; raises ConfigError on unknown ones.
        from repro.telemetry.events import parse_event_mask
        parse_event_mask(self.events)


@dataclass
class ProfileConfig:
    """Host-performance profiling (see :mod:`repro.profile`).

    Answers "where does the *host's* wall time go and how fast are we
    simulating?" — the simulator-side counterpart of the target-side
    telemetry above.  Disabled by default; a disabled run constructs no
    profiler at all, so instrumented call sites keep their original,
    unwrapped methods and the hot paths pay nothing.  Profiling is
    purely observational: it never consumes RNG streams, never charges
    simulated time, and a profiled run produces byte-identical
    simulation metrics to an unprofiled one.
    """

    #: Enable host profiling (CLI ``--profile``).
    enabled: bool = False

    def validate(self) -> None:
        pass


@dataclass
class CheckConfig:
    """Runtime correctness checking (see :mod:`repro.check.sanitize`).

    Sanitizers observe the telemetry bus and verify invariants (clock
    monotonicity, message causality, barrier membership) as the
    simulation runs.  They are purely observational: a sanitized run
    produces the same simulated cycles and counters as an unsanitized
    one, and when ``sanitize`` is off no observer exists at all.
    """

    #: Enable the runtime sanitizers (CLI ``--sanitize``).
    sanitize: bool = False

    def validate(self) -> None:
        pass


@dataclass
class CkptConfig:
    """Deterministic checkpoint/restore (see :mod:`repro.ckpt`).

    Disabled by default.  Setting ``dir`` makes the simulation
    snapshottable: thread interpreters begin recording their generator
    replay logs and :meth:`repro.sim.simulator.Simulator.save_checkpoint`
    becomes available.  Setting ``every`` > 0 additionally writes a
    snapshot every that many scheduler turns.  Snapshots are purely
    observational — a checkpointing run produces byte-identical
    metrics to a non-checkpointing one — and a restored run continues
    to a byte-identical :class:`~repro.sim.results.SimulationResult`.

    Under the mp backend a checkpoint is a *coordinated* one (every
    worker acknowledges a CHECKPOINT barrier before the snapshot
    commits), and a crashed worker triggers restore-and-resume from
    the last consistent checkpoint, the delay doubling per attempt, up
    to ``max_restarts`` attempts.
    """

    #: Checkpoint directory; ``None`` disables the subsystem entirely.
    dir: Optional[str] = None
    #: Scheduler turns between periodic checkpoints; 0 = manual only.
    every: int = 0
    #: Completed checkpoints retained in ``dir`` (older ones pruned).
    keep: int = 2
    #: Crash-recovery restarts allowed before the failure propagates.
    max_restarts: int = 3
    #: First restart delay in seconds; doubles per subsequent attempt.
    backoff_base: float = 0.05

    @property
    def enabled(self) -> bool:
        return self.dir is not None

    def validate(self) -> None:
        _require(self.every >= 0, "ckpt: every must be >= 0")
        _require(self.keep >= 1, "ckpt: keep must be >= 1")
        _require(self.max_restarts >= 0,
                 "ckpt: max_restarts must be >= 0")
        _require(self.backoff_base >= 0.0,
                 "ckpt: backoff_base must be >= 0")
        _require(self.every == 0 or self.dir is not None,
                 "ckpt: periodic checkpointing (every > 0) needs dir")


@dataclass
class SampleConfig:
    """Checkpoint-accelerated sampling (see :mod:`repro.sample`).

    Two composable mechanisms, both switching execution mode only at
    scheduler-quantum boundaries:

    * **Functional fast-forward**: until every live tile clock reaches
      ``ff_until``, the run executes functionally — caches, directory
      and shared memory stay architecturally warm, but the core retires
      at a fixed unit cost, the network and DRAM are zero-latency and
      synchronization is magic.
    * **Interval sampling**: after ``ff_until``, each ``period`` cycles
      opens with a detailed-but-unmeasured ``warmup`` window, then a
      measured ``detail`` window, then fast-forwards the remainder;
      :mod:`repro.sample.stats` extrapolates whole-run metrics from the
      measured windows with Student-t confidence intervals.

    The section is *semantic* — fast-forwarding legitimately changes
    ``simulated_cycles`` — except ``library``, which only names where
    shared prefix snapshots live and is excluded from
    :meth:`SimulationConfig.semantic_dict`.
    """

    #: Fast-forward functionally until every live tile clock reaches
    #: this cycle count; 0 disables fast-forward.
    ff_until: int = 0
    #: Interval sampling period in cycles; 0 disables interval sampling.
    period: int = 0
    #: Measured detailed window after each period's warmup, in cycles.
    detail: int = 0
    #: Detailed (unmeasured) warmup opening each period.
    warmup: int = 0
    #: Snapshot-library root for prefix sharing; ``None`` = no library.
    #: Observational: two configs differing only here hash identically.
    library: Optional[str] = None
    #: Confidence level of the Student-t interval on extrapolations.
    confidence: float = 0.95

    @property
    def enabled(self) -> bool:
        return self.ff_until > 0 or self.period > 0

    @property
    def intervals_enabled(self) -> bool:
        return self.period > 0

    @classmethod
    def parse_intervals(cls, spec: str) -> Tuple[int, int, int]:
        """Parse the CLI's ``period:detail:warmup`` interval spec."""
        parts = spec.split(":")
        if len(parts) != 3:
            raise ConfigError(
                f"sample: interval spec {spec!r} is not "
                "'period:detail:warmup'")
        try:
            period, detail, warmup = (int(p) for p in parts)
        except ValueError as exc:
            raise ConfigError(
                f"sample: non-integer interval spec {spec!r}") from exc
        return period, detail, warmup

    def validate(self) -> None:
        _require(self.ff_until >= 0, "sample: ff_until must be >= 0")
        _require(self.period >= 0, "sample: period must be >= 0")
        _require(self.detail >= 0, "sample: detail must be >= 0")
        _require(self.warmup >= 0, "sample: warmup must be >= 0")
        if self.period:
            _require(self.detail >= 1,
                     "sample: interval sampling needs detail >= 1")
            _require(self.detail + self.warmup <= self.period,
                     "sample: detail + warmup must fit in the period")
        _require(0.0 < self.confidence < 1.0,
                 "sample: confidence must be in (0, 1)")


@dataclass
class SimulationConfig:
    """Top-level configuration: the target architecture plus the host."""

    num_tiles: int = 32
    core: CoreConfig = field(default_factory=CoreConfig)
    memory: MemoryConfig = field(default_factory=MemoryConfig)
    network: NetworkConfig = field(default_factory=NetworkConfig)
    sync: SyncConfig = field(default_factory=SyncConfig)
    host: HostConfig = field(default_factory=HostConfig)
    distrib: DistribConfig = field(default_factory=DistribConfig)
    telemetry: TelemetryConfig = field(default_factory=TelemetryConfig)
    check: CheckConfig = field(default_factory=CheckConfig)
    profile: ProfileConfig = field(default_factory=ProfileConfig)
    ckpt: CkptConfig = field(default_factory=CkptConfig)
    sample: SampleConfig = field(default_factory=SampleConfig)
    #: Master seed for all RNG streams.
    seed: int = 42
    #: Heterogeneous tiles (paper §2: "tiles may be homogeneous or
    #: heterogeneous"): per-tile overrides of CoreConfig fields, e.g.
    #: ``{0: {"dispatch_width": 4, "model": "out_of_order"}}`` makes
    #: tile 0 a big core.  Unlisted tiles use ``core`` as-is.
    tile_core_overrides: Dict[int, Dict[str, Any]] = field(
        default_factory=dict)
    #: Sample per-tile clocks for skew traces (Figure 7); adds overhead.
    trace_clock_skew: bool = False
    #: Skew sampling period in scheduler turns.
    skew_sample_period: int = 64

    def core_config_for(self, tile: int) -> CoreConfig:
        """The effective core configuration of one tile."""
        overrides = self.tile_core_overrides.get(tile)
        if not overrides:
            return self.core
        merged = dataclasses.replace(self.core, **overrides)
        merged.validate()
        return merged

    def validate(self) -> None:
        _require(self.num_tiles >= 1, "simulation: need at least one tile")
        self.core.validate()
        for tile, overrides in self.tile_core_overrides.items():
            _require(0 <= int(tile) < self.num_tiles,
                     f"simulation: override for missing tile {tile}")
            unknown = set(overrides) - {
                f.name for f in dataclasses.fields(CoreConfig)}
            _require(not unknown,
                     f"simulation: unknown core fields {sorted(unknown)}")
            self.core_config_for(int(tile))
        self.memory.validate()
        self.network.validate()
        self.sync.validate()
        self.host.validate()
        self.distrib.validate()
        self.telemetry.validate()
        self.check.validate()
        self.profile.validate()
        self.ckpt.validate()
        self.sample.validate()

    # -- (de)serialisation --------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """Flatten to plain nested dicts (JSON-compatible)."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SimulationConfig":
        """Build a config from nested dicts, applying defaults elsewhere.

        A key named in :data:`RETIRED_FIELDS` is dropped; any other key
        that is not a field raises :class:`ConfigError`.
        """

        def build(klass: type, path: str, section: Mapping[str, Any]) -> Any:
            types = {f.name: f.type for f in dataclasses.fields(klass)}
            kwargs: Dict[str, Any] = {}
            unknown = []
            for key, value in section.items():
                name = f"{path}{key}"
                if key not in types:
                    if name not in RETIRED_FIELDS:
                        unknown.append(key)
                    continue
                # A nested section's annotation names its class here.
                nested = globals().get(types[key])
                if dataclasses.is_dataclass(nested):
                    value = build(nested, f"{name}.", value)
                kwargs[key] = value
            if unknown:
                raise ConfigError(
                    f"{klass.__name__}: unknown keys {sorted(unknown)}")
            return klass(**kwargs)

        data = dict(data)
        if "tile_core_overrides" in data:
            data["tile_core_overrides"] = {
                int(tile): dict(overrides) for tile, overrides
                in data["tile_core_overrides"].items()}
        config = build(cls, "", data)
        config.validate()
        return config

    def copy(self) -> "SimulationConfig":
        """Deep-copy via round-trip so sweeps can mutate safely."""
        return SimulationConfig.from_dict(self.to_dict())

    # -- content addressing -------------------------------------------------

    def semantic_dict(self) -> Dict[str, Any]:
        """The result-determining subset of :meth:`to_dict`.

        Drops :data:`OBSERVATIONAL_SECTIONS` — the knobs proven not to
        change simulation metrics — and keeps everything else,
        including the seed and every nested model parameter.  The
        ``sample`` section stays (fast-forwarding changes results),
        minus its ``library`` field, which only locates shared prefix
        snapshots on disk.
        """
        data = self.to_dict()
        for section in OBSERVATIONAL_SECTIONS:
            data.pop(section, None)
        if "sample" in data:
            data["sample"] = {k: v for k, v in data["sample"].items()
                              if k != "library"}
        return data

    def content_hash(self) -> str:
        """Deterministic identity of this configuration's *results*.

        The sha256 (hex) of the canonical JSON of
        :meth:`semantic_dict` plus the wire/result format version:
        equal hashes mean a simulation of this config is guaranteed to
        produce byte-identical metrics, which is what lets the serve
        result cache (:mod:`repro.serve.store`) return a stored
        :class:`~repro.sim.results.SimulationResult` for a repeat
        submission without simulating.  Stable across processes,
        interpreters and ``PYTHONHASHSEED`` values: the JSON encoding
        sorts keys and carries no addresses or wall-clock state.
        """
        from repro.distrib.wire import WIRE_VERSION
        return content_key({"config": self.semantic_dict(),
                            "wire_version": WIRE_VERSION})

    def prefix_hash(self) -> str:
        """Identity of this config's *functional prefix*.

        Like :meth:`content_hash` but additionally dropping
        :data:`PREFIX_IRRELEVANT_SECTIONS` and the per-tile core
        overrides: sections that only steer timing models bypassed
        during functional fast-forward.  Two configs with equal prefix
        hashes fast-forwarded to the same cycle produce byte-identical
        architectural state, so the snapshot library
        (:mod:`repro.sample.library`) may serve both from one stored
        checkpoint.  Stable across processes and ``PYTHONHASHSEED``
        for the same reasons as :meth:`content_hash`.
        """
        from repro.distrib.wire import WIRE_VERSION
        data = self.semantic_dict()
        for section in PREFIX_IRRELEVANT_SECTIONS:
            data.pop(section, None)
        data.pop("tile_core_overrides", None)
        return content_key({"prefix": data, "wire_version": WIRE_VERSION})

    # -- pickling (wire format) ---------------------------------------------
    #
    # Configurations cross process boundaries in the mp backend and the
    # parallel sweep pool.  Pickling goes through the plain-dict form so
    # the wire state is explicit and versioned rather than a dump of
    # interpreter internals.

    _PICKLE_VERSION = 1

    def __getstate__(self) -> Dict[str, Any]:
        return {"version": self._PICKLE_VERSION, "data": self.to_dict()}

    def __setstate__(self, state: Dict[str, Any]) -> None:
        version = state.get("version")
        if version != self._PICKLE_VERSION:
            raise ConfigError(
                f"SimulationConfig pickle version {version!r} is not "
                f"supported (expected {self._PICKLE_VERSION})")
        rebuilt = SimulationConfig.from_dict(state["data"])
        self.__dict__.update(rebuilt.__dict__)
