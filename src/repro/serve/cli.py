"""CLI verbs for the simulation service.

``repro serve`` runs the daemon in the foreground (or, with
``--stop``, asks a running one to shut down); ``repro submit /
status / fetch / cancel`` are thin :class:`~repro.serve.client.
ServeClient` wrappers.  The daemon's socket lives in its spool
directory (``<dir>/serve.sock``), so every verb takes ``--dir``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys

from repro.common.errors import ServeError


def _add_spool_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--dir", required=True, metavar="SPOOL",
                        help="service spool directory (holds the "
                             "socket, the result store and per-job "
                             "checkpoints)")


def add_serve_arguments(parser: argparse.ArgumentParser) -> None:
    _add_spool_argument(parser)
    parser.add_argument("--fleet", type=int, default=2,
                        help="persistent workers (default 2)")
    parser.add_argument("--max-attempts", type=int, default=3,
                        metavar="N",
                        help="worker deaths tolerated per job before "
                             "it fails (default 3)")
    parser.add_argument("--socket", default=None, metavar="PATH",
                        help="socket path (default SPOOL/serve.sock; "
                             "mind the ~100-char AF_UNIX limit)")
    parser.add_argument("--listen", default=None, metavar="HOST:PORT",
                        help="also accept remote fleet workers "
                             "(repro worker --connect) on this TCP "
                             "address; with a shared spool filesystem "
                             "preempted jobs resume anywhere")
    from repro.cli import add_telemetry_arguments
    add_telemetry_arguments(
        parser, metrics_metavar="SECONDS",
        metrics_help="emit a fleet.sample metrics event every N "
                     "seconds onto the ops stream")
    parser.add_argument("--stop", action="store_true",
                        help="ask the daemon on SPOOL's socket to shut "
                             "down, instead of starting one")


def add_submit_arguments(parser: argparse.ArgumentParser) -> None:
    from repro.cli import add_target_arguments
    _add_spool_argument(parser)
    add_target_arguments(parser)
    parser.add_argument("--priority", type=int, default=0,
                        help="higher runs earlier and may preempt "
                             "(default 0)")
    parser.add_argument("--wait", action="store_true",
                        help="block until the job reaches a terminal "
                             "state")
    parser.add_argument("--timeout", type=float, default=300.0,
                        help="--wait limit in seconds (default 300)")
    parser.add_argument("--json", action="store_true")


def add_status_arguments(parser: argparse.ArgumentParser) -> None:
    _add_spool_argument(parser)
    parser.add_argument("job_id", nargs="?", default=None,
                        help="job to show (default: every job, plus "
                             "daemon stats)")
    parser.add_argument("--json", action="store_true")


def add_fetch_arguments(parser: argparse.ArgumentParser) -> None:
    _add_spool_argument(parser)
    parser.add_argument("job_id")
    parser.add_argument("--json", action="store_true",
                        help="print the full canonical result dict "
                             "(default: a short metrics summary)")


def add_cancel_arguments(parser: argparse.ArgumentParser) -> None:
    _add_spool_argument(parser)
    parser.add_argument("job_id")


def add_top_arguments(parser: argparse.ArgumentParser) -> None:
    _add_spool_argument(parser)
    parser.add_argument("--socket", default=None, metavar="PATH",
                        help="socket path (default SPOOL/serve.sock)")
    parser.add_argument("--interval", type=float, default=2.0,
                        metavar="SECONDS",
                        help="refresh cadence (default 2.0)")
    parser.add_argument("--once", action="store_true",
                        help="print one snapshot and exit (scripting)")
    parser.add_argument("--prom", action="store_true",
                        help="print the raw Prometheus text exposition "
                             "instead of the console view (implies "
                             "--once)")


def _socket_path(args: argparse.Namespace) -> str:
    explicit = getattr(args, "socket", None)
    return explicit or os.path.join(args.dir, "serve.sock")


def _client(args: argparse.Namespace):
    from repro.serve.client import ServeClient
    return ServeClient(_socket_path(args))


def run_serve(args: argparse.Namespace) -> int:
    if args.stop:
        client = _client(args)
        try:
            client.shutdown()
        except ServeError as exc:
            print(f"serve: {exc}", file=sys.stderr)
            return 1
        print("serve: shutdown requested")
        return 0

    from repro.cli import telemetry_from_args
    from repro.serve.daemon import SimServer
    telemetry = telemetry_from_args(
        args, default_events=["serve", "obs", "metrics", "net"])
    try:
        server = SimServer(args.dir, fleet=args.fleet,
                           max_attempts=args.max_attempts,
                           socket_path=args.socket, telemetry=telemetry,
                           listen=args.listen)
        server.start()
    except ServeError as exc:
        print(f"serve: {exc}", file=sys.stderr)
        return 1
    print(f"serve: listening on {server.socket_path} "
          f"(fleet {server.fleet_size})", flush=True)
    if server.listen_address is not None:
        print(f"serve: accepting remote workers on "
              f"{server.listen_address}", flush=True)

    def _handle_signal(signum, frame):  # pragma: no cover - signals
        server.request_stop()

    signal.signal(signal.SIGTERM, _handle_signal)
    signal.signal(signal.SIGINT, _handle_signal)
    try:
        while not server.wait(timeout=0.5):
            pass
    finally:
        server.stop()
    print("serve: stopped", flush=True)
    return 0


def _print_view(view: dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps(view, indent=2, sort_keys=True))
        return
    error = f"  error: {view['error']}" if view.get("error") else ""
    print(f"{view['job_id']}  {view['state']:<9} "
          f"prio={view['priority']} attempts={view['attempts']} "
          f"preemptions={view['preemptions']}{error}")


def run_submit(args: argparse.Namespace) -> int:
    from repro.cli import target_config
    config, program = target_config(args)
    client = _client(args)
    try:
        view = client.submit(config=config, workload=program.workload,
                             nthreads=program.nthreads,
                             scale=program.scale,
                             priority=args.priority)
        if args.wait:
            view = client.wait(view["job_id"], timeout=args.timeout)
    except ServeError as exc:
        print(f"submit: {exc}", file=sys.stderr)
        return 1
    _print_view(view, args.json)
    return 0 if view["state"] != "failed" else 1


def run_status(args: argparse.Namespace) -> int:
    client = _client(args)
    try:
        if args.job_id:
            _print_view(client.status(args.job_id), args.json)
            return 0
        jobs = client.list_jobs()
        stats = client.stats()
    except ServeError as exc:
        print(f"status: {exc}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps({"jobs": jobs, "stats": stats}, indent=2,
                         sort_keys=True))
        return 0
    for view in jobs:
        _print_view(view, False)
    print(f"fleet={stats['fleet']} submitted={stats['submitted']} "
          f"cache_hits={stats['cache_hits']} "
          f"preemptions={stats['preemptions']} "
          f"worker_deaths={stats['worker_deaths']}")
    return 0


def run_fetch(args: argparse.Namespace) -> int:
    client = _client(args)
    try:
        reply = client.fetch(args.job_id)
    except ServeError as exc:
        print(f"fetch: {exc}", file=sys.stderr)
        return 1
    result = reply["result"]
    if args.json:
        print(json.dumps(result, indent=2, sort_keys=True))
        return 0
    view = reply["job"]
    instructions = sum(result["thread_instructions"].values())
    print(f"{view['job_id']}  {view['state']}  key={view['key'][:16]}")
    print(f"simulated cycles:  {result['simulated_cycles']:,}")
    print(f"instructions:      {instructions:,}")
    return 0


def run_top(args: argparse.Namespace) -> int:
    if args.prom:
        try:
            print(_client(args).metrics()["text"], end="")
        except ServeError as exc:
            print(f"top: {exc}", file=sys.stderr)
            return 1
        return 0
    from repro.obs.top import run_top as obs_run_top
    try:
        return obs_run_top(_socket_path(args), interval=args.interval,
                           once=args.once)
    except ServeError as exc:
        print(f"top: {exc}", file=sys.stderr)
        return 1


def run_cancel(args: argparse.Namespace) -> int:
    client = _client(args)
    try:
        view = client.cancel(args.job_id)
    except ServeError as exc:
        print(f"cancel: {exc}", file=sys.stderr)
        return 1
    _print_view(view, False)
    return 0
