"""Command-line interface: run simulations without writing a script.

Examples::

    python -m repro list-workloads
    python -m repro run --workload fft --tiles 32 --machines 2
    python -m repro run --workload blackscholes --tiles 64 \\
        --directory limited --sharers 4 --quantum 100
    python -m repro show-config

Mirrors how the real Graphite is driven: a target architecture and a
host configuration selected at run time around an unmodified program.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.common.config import (
    DIRECTORY_TYPES,
    EXECUTION_BACKENDS,
    NETWORK_MODELS,
    SYNC_MODELS,
    SimulationConfig,
)
from repro.common.units import pretty_seconds
from repro.sim.runner import launch
from repro.workloads.base import get_workload, workload_names


def add_telemetry_arguments(parser: argparse.ArgumentParser,
                            metrics_metavar: str = "TURNS",
                            metrics_help: str =
                            "snapshot all counters every N scheduler "
                            "turns into metric time-series (implies "
                            "--trace)") -> None:
    """The uniform observability flags (``repro.obs``).

    Every long-running verb — ``run``, ``resume``, ``worker``,
    ``serve`` — accepts the same four flags; only the meaning of the
    metrics cadence differs (scheduler turns for a simulation, seconds
    for the daemon), so callers override its metavar/help.
    """
    parser.add_argument("--trace", nargs="?", const="all", default=None,
                        metavar="CATEGORIES",
                        help="enable event tracing; optional comma-"
                             "separated categories (e.g. cache,network), "
                             "default all")
    parser.add_argument("--trace-out", default=None, metavar="PATH",
                        help="trace file; .json gets Chrome trace-event "
                             "format (load in Perfetto), anything else "
                             "JSONL (implies --trace)")
    parser.add_argument("--metrics-interval", type=int, default=0,
                        metavar=metrics_metavar, help=metrics_help)
    parser.add_argument("--flight-dir", default=None, metavar="DIR",
                        help="arm the crash flight recorder: keep a "
                             "bounded ring of recent events (even "
                             "without --trace) and dump a forensics "
                             "bundle into DIR when a worker dies or a "
                             "run crashes")


def telemetry_from_args(args: argparse.Namespace,
                        default_events: Optional[List[str]] = None):
    """Build the :class:`~repro.common.config.TelemetryConfig` the
    shared observability flags describe, or ``None`` when no flag was
    given.  ``--flight-dir`` alone arms the recorder without enabling
    recording (the ring observes a mask-0 bus)."""
    from repro.common.config import TelemetryConfig
    trace = getattr(args, "trace", None)
    trace_out = getattr(args, "trace_out", None)
    metrics = getattr(args, "metrics_interval", 0)
    flight = getattr(args, "flight_dir", None)
    if not (trace or trace_out or metrics or flight):
        return None
    telemetry = TelemetryConfig()
    if trace or trace_out or metrics:
        telemetry.enabled = True
        telemetry.events = (
            [c.strip() for c in trace.split(",") if c.strip()]
            if trace else list(default_events or ["all"]))
        telemetry.trace_path = trace_out
        telemetry.metrics_interval = metrics
    if flight:
        telemetry.flight_dir = flight
    telemetry.validate()
    return telemetry


def add_target_arguments(parser: argparse.ArgumentParser) -> None:
    """The flags that name a target: workload, architecture, host.

    ``run``, ``submit`` and ``sample prime`` all take exactly these,
    and :func:`target_config` is the one place they become a config.
    """
    parser.add_argument("--workload", required=True,
                        help=f"one of: {', '.join(workload_names())}")
    parser.add_argument("--tiles", type=int, default=32,
                        help="target tiles (default 32)")
    parser.add_argument("--threads", type=int, default=0,
                        help="application threads (default: = tiles)")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="problem-size multiplier (default 1.0)")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--machines", type=int, default=1,
                        help="host machines (default 1)")
    parser.add_argument("--cores", type=int, default=8,
                        help="host cores per machine (default 8)")
    parser.add_argument("--sync", choices=SYNC_MODELS, default="lax",
                        help="synchronization model (default lax)")
    parser.add_argument("--directory", choices=DIRECTORY_TYPES,
                        default="full_map",
                        help="coherence directory (default full_map)")
    parser.add_argument("--sharers", type=int, default=4,
                        help="pointers for limited/limitless "
                             "directories")
    parser.add_argument("--network", choices=NETWORK_MODELS,
                        default="mesh", help="memory network model")
    parser.add_argument("--quantum", type=int, default=0,
                        help="scheduler quantum in instructions")
    parser.add_argument("--classify-misses", action="store_true",
                        help="report the miss-type breakdown (Figure 8)")


def target_config(args: argparse.Namespace) -> tuple:
    """``(config, WorkloadRef)`` for the flags of
    :func:`add_target_arguments`: the config validated, an unknown
    workload rejected before anything runs."""
    get_workload(args.workload)
    config = SimulationConfig(num_tiles=args.tiles, seed=args.seed)
    config.host.num_machines = args.machines
    config.host.cores_per_machine = args.cores
    config.sync.model = args.sync
    config.memory.directory_type = args.directory
    config.memory.directory_max_sharers = args.sharers
    config.network.memory_model = args.network
    config.memory.classify_misses = args.classify_misses
    if args.quantum:
        config.host.quantum_instructions = args.quantum
    config.validate()
    # A WorkloadRef rather than a built program: both backends resolve
    # it at spawn time, and the mp backend can ship it to workers.
    from repro.distrib.wire import WorkloadRef
    return config, WorkloadRef(args.workload, args.threads or args.tiles,
                               args.scale)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Graphite reproduction: a parallel distributed "
                    "multicore simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="simulate one workload")
    add_target_arguments(run)
    run.add_argument("--backend", choices=EXECUTION_BACKENDS,
                     default="inproc",
                     help="execution backend: inproc runs everything "
                          "in this process, mp forks one worker per "
                          "host process (default inproc)")
    run.add_argument("--transport", choices=("pipe", "tcp"),
                     default="pipe",
                     help="mp worker channel: pipe (forked children) "
                          "or tcp (multi-host sockets; default pipe)")
    run.add_argument("--listen", default="127.0.0.1:0",
                     metavar="HOST:PORT",
                     help="tcp transport: coordinator bind address "
                          "(port 0 picks an ephemeral port)")
    run.add_argument("--expect-workers", type=int, default=0,
                     metavar="N",
                     help="tcp transport: wait for N remote `repro "
                          "worker --connect` dial-ins instead of "
                          "forking local workers (default 0 = local)")
    run.add_argument("--connect-timeout", type=float, default=60.0,
                     metavar="SECONDS",
                     help="seconds to wait for the expected dial-ins")
    run.add_argument("--rebalance", choices=("off", "slowest"),
                     default="off",
                     help="live-migration policy: drain the slowest "
                          "worker (by observed quantum.run host time) "
                          "into the least busy one (default off)")
    run.add_argument("--rebalance-every", type=int, default=8,
                     metavar="TURNS",
                     help="scheduler turns between rebalance checks")
    run.add_argument("--drain-turn", type=int, default=0,
                     metavar="TURN",
                     help="scripted drain: at scheduler turn TURN, "
                          "checkpoint-migrate one worker's shard away "
                          "and release the worker (0 = never)")
    run.add_argument("--drain-worker", type=int, default=-1,
                     metavar="INDEX",
                     help="which worker --drain-turn drains "
                          "(default -1 = highest loaded index)")
    run.add_argument("--ff-until", type=int, default=0,
                     metavar="CYCLES",
                     help="fast-forward functionally (architectural "
                          "state warm, timing bypassed) until CYCLES, "
                          "then switch to detailed execution")
    run.add_argument("--sample", default=None,
                     metavar="PERIOD:DETAIL:WARMUP",
                     help="interval sampling after the fast-forward: "
                          "per PERIOD cycles, run WARMUP + DETAIL "
                          "cycles detailed (only DETAIL measured) and "
                          "fast-forward the rest; run time is "
                          "extrapolated with a confidence interval "
                          "(requires --ff-until)")
    run.add_argument("--sample-library", default=None, metavar="DIR",
                     help="snapshot library: share the fast-forward "
                          "prefix across runs — the first run primes "
                          "a switch-point checkpoint, later runs fork "
                          "from it (requires --ff-until)")
    add_telemetry_arguments(run)
    run.add_argument("--json", action="store_true",
                     help="emit machine-readable JSON instead of text")
    run.add_argument("--report", action="store_true",
                     help="print the full sim.out-style report")
    run.add_argument("--sanitize", action="store_true",
                     help="enable runtime sanitizers (clock "
                          "monotonicity, message causality, barrier "
                          "membership); purely observational")
    run.add_argument("--profile", action="store_true",
                     help="collect a host-performance profile (where "
                          "host wall time goes, simulation-rate "
                          "gauges); never perturbs simulated results")
    run.add_argument("--ckpt-dir", default=None, metavar="DIR",
                     help="enable checkpointing into DIR; resume later "
                          "with `repro resume DIR`")
    run.add_argument("--ckpt-every", type=int, default=0,
                     metavar="TURNS",
                     help="write a checkpoint every N scheduler turns "
                          "(requires --ckpt-dir; 0 = only crash "
                          "recovery state, no periodic snapshots)")
    run.add_argument("--ckpt-retries", type=int, default=3,
                     metavar="N",
                     help="crash-recovery restarts before giving up "
                          "(default 3)")

    worker = sub.add_parser(
        "worker",
        help="join a remote coordinator (or serve daemon) as a "
             "worker: dial host:port, handshake versions and config, "
             "then execute whatever shard or jobs it assigns")
    worker.add_argument("--connect", required=True, metavar="HOST:PORT",
                        help="listener address to dial")
    worker.add_argument("--timeout", type=float, default=30.0,
                        metavar="SECONDS",
                        help="connect timeout (default 30)")
    add_telemetry_arguments(
        worker, metrics_metavar="SECONDS",
        metrics_help="(reserved) cadence for local metric samples")

    resume = sub.add_parser(
        "resume",
        help="resume a checkpointed simulation to completion "
             "(byte-identical to the uninterrupted run)")
    from repro.ckpt.cli import add_resume_arguments
    add_resume_arguments(resume)

    from repro.serve.cli import (
        add_cancel_arguments,
        add_fetch_arguments,
        add_serve_arguments,
        add_status_arguments,
        add_submit_arguments,
        add_top_arguments,
    )
    serve = sub.add_parser(
        "serve",
        help="run the persistent simulation service: a scheduler "
             "daemon over a worker fleet with priority queueing, "
             "checkpoint preemption and a content-addressed result "
             "cache")
    add_serve_arguments(serve)
    submit = sub.add_parser(
        "submit", help="submit one job to a running serve daemon")
    add_submit_arguments(submit)
    status = sub.add_parser(
        "status", help="show job states and daemon counters")
    add_status_arguments(status)
    fetch = sub.add_parser(
        "fetch", help="fetch a finished job's canonical result")
    add_fetch_arguments(fetch)
    cancel = sub.add_parser(
        "cancel", help="cancel a queued or running job")
    add_cancel_arguments(cancel)
    top = sub.add_parser(
        "top",
        help="live fleet metrics from a running serve daemon: queue "
             "depth, per-priority wait, cache hit rate, per-worker "
             "utilization (refreshing console view)")
    add_top_arguments(top)

    sample = sub.add_parser(
        "sample",
        help="manage the snapshot library of fast-forward "
             "checkpoints: ls, prime, gc")
    from repro.sample.cli import add_sample_arguments
    add_sample_arguments(sample)

    sub.add_parser("list-workloads", help="list available workloads")
    sub.add_parser("show-config",
                   help="print the default configuration as JSON")

    check = sub.add_parser(
        "check",
        help="run the determinism and wire-protocol lints plus the "
             "coherence-protocol and membership/migration state-space "
             "explorers (exits nonzero on findings)")
    from repro.check.cli import add_check_arguments
    add_check_arguments(check)
    return parser


def _configure(args: argparse.Namespace,
               config: Optional[SimulationConfig] = None
               ) -> SimulationConfig:
    """``run``'s config: the target (``config``, else the one the flags
    name) plus backend, checkpoint, sampling and observability."""
    from repro.common.errors import ConfigError
    if config is None:
        config = target_config(args)[0]
    config.distrib.backend = args.backend
    config.distrib.transport = args.transport
    config.distrib.listen = args.listen
    config.distrib.expect_workers = args.expect_workers
    config.distrib.connect_timeout = args.connect_timeout
    config.distrib.rebalance = args.rebalance
    config.distrib.rebalance_every = args.rebalance_every
    config.distrib.drain_turn = args.drain_turn
    config.distrib.drain_worker = args.drain_worker
    config.check.sanitize = args.sanitize
    config.profile.enabled = args.profile
    if args.ckpt_dir:
        config.ckpt.dir = args.ckpt_dir
        config.ckpt.every = args.ckpt_every
        config.ckpt.max_restarts = args.ckpt_retries
    elif args.ckpt_every:
        raise ConfigError("--ckpt-every requires --ckpt-dir")
    config.sample.ff_until = args.ff_until
    if args.sample:
        (config.sample.period, config.sample.detail,
         config.sample.warmup) = config.sample.parse_intervals(args.sample)
    if args.sample_library:
        if not args.ff_until:
            raise ConfigError("--sample-library requires --ff-until")
        config.sample.library = args.sample_library
    telemetry = telemetry_from_args(args)
    if telemetry is not None:
        config.telemetry = telemetry
        if telemetry.enabled and telemetry.events_include("obs"):
            # Standalone runs have no serve daemon to mint a trace
            # identity, so the run span would never arm; mint one here
            # from the semantic config, deterministically.
            from repro.obs.spans import mint_trace_id
            telemetry.trace_id = mint_trace_id(
                "run", args.workload, config.content_hash())
    config.validate()
    return config


def print_result(simulator, result, as_json: bool, program=None,
                 origin: str = "", report: bool = False) -> None:
    """Report a finished run — ``repro run`` and ``repro resume`` alike.

    Everything but the workload (``program``, when the caller knows
    it) and the ``origin`` line (a resume's checkpoint) is read from
    ``simulator.config`` and ``result``, so a resumed run reports the
    keys an uninterrupted one does, with equal values.  ``report``
    prints the full sim.out-style report instead.
    """
    config = simulator.config
    simulator.engine.check_coherence_invariants()
    if simulator.sanitizers is not None and not as_json:
        print(simulator.sanitizers.summary())
    if report:
        from repro.analysis.report import render_report
        print(render_report(config, result))
        return
    trace_events = (len(simulator.telemetry.events)
                    if simulator.telemetry is not None else 0)

    if as_json:
        payload = ({"workload": program.workload,
                    "tiles": config.num_tiles,
                    "threads": program.nthreads}
                   if program is not None else
                   {"tiles": config.num_tiles})
        payload.update({
            "machines": config.host.num_machines,
            "backend": config.distrib.backend,
            "sync": config.sync.model,
            "simulated_cycles": result.simulated_cycles,
            "parallel_cycles": result.parallel_cycles,
            "instructions": result.total_instructions,
            "wall_clock_seconds": result.wall_clock_seconds,
            "native_seconds": result.native_seconds,
            "slowdown": result.slowdown,
            "l2_miss_rate": result.cache_miss_rate("l2"),
            "messages": result.counter("transport.messages_sent"),
            "miss_breakdown": result.miss_breakdown,
        })
        if config.sample.enabled:
            payload["sample"] = result.sample
        if config.ckpt.enabled:
            payload["recoveries"] = result.recoveries
        if config.telemetry.enabled:
            payload["trace_events"] = trace_events
            payload["trace_out"] = config.telemetry.trace_path
        if simulator.host_profile is not None:
            payload["host_profile"] = simulator.host_profile
        print(json.dumps(payload, indent=2))
        return

    if origin:
        print(f"resumed from:        {origin}")
    if program is not None:
        print(f"workload:            {program.workload} "
              f"({program.nthreads} threads, scale {program.scale})")
    print(f"target:              {config.num_tiles} tiles, "
          f"{config.memory.directory_type} directory, "
          f"{config.network.memory_model} network, "
          f"{config.sync.model} sync")
    print(f"host:                {config.host.num_machines} machine(s) x "
          f"{config.host.cores_per_machine} cores, "
          f"{config.distrib.backend} backend")
    print(f"simulated run-time:  {result.simulated_cycles:,} cycles "
          f"(parallel region {result.parallel_cycles:,})")
    print(f"instructions:        {result.total_instructions:,}")
    print("wall-clock (model):  "
          f"{pretty_seconds(result.wall_clock_seconds)}")
    print(f"native (model):      {pretty_seconds(result.native_seconds)}")
    print(f"slowdown:            {result.slowdown:,.0f}x")
    print(f"L2 miss rate:        {result.cache_miss_rate('l2'):.2%}")
    print("messages:            "
          f"{result.counter('transport.messages_sent'):,}")
    if result.miss_breakdown:
        parts = ", ".join(f"{k}={v}" for k, v in
                          sorted(result.miss_breakdown.items()) if v)
        print(f"miss breakdown:      {parts}")
    if result.sample:
        ff = result.sample.get("ff")
        if ff and ff.get("cycle") is not None:
            print(f"fast-forward:        functional until cycle "
                  f"{ff['cycle']:,} (target {ff['until']:,})")
        library = result.sample.get("library")
        if library:
            origin = "primed" if library.get("primed") else "forked"
            print(f"snapshot library:    {origin} entry "
                  f"{library.get('key')}")
        extrapolation = result.sample.get("extrapolation")
        if extrapolation and extrapolation["windows"]:
            confidence = int(round(extrapolation["confidence"] * 100))
            print(f"extrapolated:        {extrapolation['cycles']:,} "
                  f"cycles from {extrapolation['windows']} window(s), "
                  f"{confidence}% CI "
                  f"[{extrapolation['cycles_low']:,}, "
                  f"{extrapolation['cycles_high']:,}]")
    if config.telemetry.enabled:
        where = (f" -> {config.telemetry.trace_path}"
                 if config.telemetry.trace_path else "")
        print(f"trace:               {trace_events:,} events{where}")
    if result.recoveries:
        print(f"recoveries:          {len(result.recoveries)} "
              f"worker restart(s)")
    if simulator.host_profile is not None:
        from repro.profile.report import render_profile
        print()
        print(render_profile(simulator.host_profile))


def _command_run(args: argparse.Namespace) -> int:
    config, program = target_config(args)
    result, simulator = launch(_configure(args, config), program)
    print_result(simulator, result, args.json, program,
                 report=args.report)
    return 0


def _command_worker(args: argparse.Namespace) -> int:
    """Dial a listener and serve it, whatever it turns out to be.

    The welcome frame's role decides the loop: a simulation
    coordinator gets a distrib shard worker, a serve daemon gets a
    remote fleet worker running jobs.

    The shared observability flags act *locally*: ``--trace`` records
    this host's view of the work (tagged with the coordinator's trace
    id from the welcome frame, never overriding the job telemetry the
    coordinator ships), and ``--flight-dir`` arms a local flight
    recorder dumped when the connection dies on a protocol error.
    """
    from repro.distrib.wire import WIRE_VERSION
    from repro.net.handshake import HandshakeError
    from repro.net.listener import connect_worker

    bus = None
    flight = None
    telemetry = telemetry_from_args(
        args, default_events=["net", "worker", "serve", "obs"])
    if telemetry is not None:
        from repro.telemetry.bus import create_bus
        bus = create_bus(telemetry)
        if telemetry.flight_dir:
            from repro.obs.flight import arm_flight_recorder
            bus, flight = arm_flight_recorder(bus,
                                              telemetry.flight_events)
    ops = None
    if bus is not None:
        from repro.telemetry.events import EventCategory
        ops = bus.channel(EventCategory.WORKER)

    def fail(exc: Exception) -> int:
        if ops is not None:
            ops.emit("worker.error", None, 0, {"error": str(exc)})
        if flight is not None and telemetry.flight_dir:
            try:
                flight.dump(telemetry.flight_dir,
                            type(exc).__name__,
                            detail=str(exc).splitlines()[0]
                            if str(exc) else "")
            except OSError:
                pass
        if bus is not None:
            bus.close()
        print(f"worker: {exc}", file=sys.stderr)
        return 1

    try:
        channel, welcome = connect_worker(args.connect, WIRE_VERSION,
                                          timeout=args.timeout)
    except HandshakeError as exc:
        return fail(exc)
    if ops is not None:
        ops.emit("worker.connected", None, 0,
                 {"peer": args.connect, "role": welcome.role,
                  "trace": welcome.trace})
    try:
        if welcome.role == "serve":
            from repro.serve.fleet import run_fleet_child
            run_fleet_child(channel, ops=ops)
        else:
            from repro.distrib.worker import run_connected_worker
            run_connected_worker(channel, welcome)
    except HandshakeError as exc:
        return fail(exc)
    if ops is not None:
        ops.emit("worker.disconnected", None, 0, {"peer": args.connect})
    if bus is not None:
        bus.close()
    return 0


def _command_list() -> int:
    names = workload_names()
    width = max(len(name) for name in names)
    for name in names:
        factory = get_workload(name)
        print(f"{name.ljust(width)}  {factory.description} "
              f"[communication: {factory.comm_intensity}]")
    return 0


def _command_show_config() -> int:
    print(json.dumps(SimulationConfig().to_dict(), indent=2))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "run":
        return _command_run(args)
    if args.command == "worker":
        return _command_worker(args)
    if args.command == "list-workloads":
        return _command_list()
    if args.command == "show-config":
        return _command_show_config()
    if args.command == "check":
        from repro.check.cli import run_check
        return run_check(args)
    if args.command == "resume":
        from repro.ckpt.cli import run_resume
        return run_resume(args)
    if args.command == "sample":
        from repro.sample.cli import run_sample
        return run_sample(args)
    if args.command in ("serve", "submit", "status", "fetch", "cancel",
                        "top"):
        from repro.serve import cli as serve_cli
        handler = getattr(serve_cli, f"run_{args.command}")
        return handler(args)
    raise AssertionError(f"unhandled command {args.command}")


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
