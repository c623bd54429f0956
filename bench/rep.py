"""One rep: a fresh process that sets up, runs one op, and reports.

``run.py`` spawns this file once per rep and reads the JSON object on
the last line of its standard output.  Set-up is timed from the moment
the parent spawned the process (``--t0``, the parent's
``time.monotonic_ns()``; one clock for every process on Linux) to the
start of the op, so it holds interpreter start, ``import repro``,
config and simulator construction, and daemon start.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from typing import Any, Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

TRACE_SCHEMA = "bench.trace/1"


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it reaped."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, reaped) / 1024.0  # Linux reports KiB


def run_rep(args: argparse.Namespace) -> Dict[str, Any]:
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import checks
    import layers
    import tracer
    import workloads

    workload = workloads.BY_NAME[args.workload]
    recorder = tracer.Recorder() if args.traced else None
    ctx = workloads.Context(seed=args.seed, scratch=args.scratch,
                            recorder=recorder, variant=args.variant)

    if workload.one_cpu:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    patches: List[tracer.Patch] = []
    setup_token = recorder.begin("setup") if recorder else None
    import_start = time.perf_counter_ns()
    import repro.cli  # noqa: F401 -- the import a CLI user pays
    import_ns = time.perf_counter_ns() - import_start
    if recorder is not None:
        patches = tracer.install(recorder)
    state = workload.prepare(ctx)
    if recorder is not None:
        recorder.end(setup_token)
        setup_totals = recorder.mark()
        op_token = recorder.begin("op")
    op_start = time.perf_counter_ns()
    setup_s = (time.monotonic_ns() - args.t0) / 1e9

    try:
        outcome = workload.run(ctx, state)
        wall_ns = time.perf_counter_ns() - op_start
        if recorder is not None:
            recorder.end(op_token)
            tracer.uninstall(patches)
    finally:
        workload.finish(ctx, state)
    # Before the reference runs: they are not the op's memory.
    rss = peak_rss_mb()

    results = outcome.results
    failures = list(outcome.failures)
    character = checks.traffic_character(list(results.values()))
    failures += checks.character_failures(character, workload.limits)
    report: Dict[str, Any] = {
        "workload": workload.name, "seed": args.seed,
        "variant": args.variant, "traced": bool(args.traced),
        "setup_s": setup_s, "wall_s": wall_ns / 1e9,
        "peak_rss_mb": rss, "instructions": outcome.instructions,
        "extra": outcome.extra, "facts": outcome.facts,
        "character": character,
        "digests": {label: checks.result_digest(result)
                    for label, result in results.items()},
    }
    if args.reference:
        report["reference"] = {
            label: checks.result_digest(result) for label, result
            in workload.reference(ctx, state).items()}
    if recorder is not None:
        report["facts"] = dict(
            outcome.facts, **workload.probe(ctx, state, outcome))
        report["layers"] = layers.layer_metrics(
            setup_totals, recorder.since(setup_totals),
            recorder.counts, outcome, wall_ns, import_ns)
        if args.trace_out:
            with open(args.trace_out, "w", encoding="utf-8") as out:
                json.dump({"schema": TRACE_SCHEMA,
                           "workload": workload.name, "seed": args.seed,
                           "span_fields": ["name", "start_ns", "end_ns",
                                           "parent", "op_id"],
                           "spans": recorder.spans,
                           "folded": recorder.totals,
                           "counts": recorder.counts}, out)
    report["attempted"] = outcome.attempted
    report["failed"] = min(len(failures), outcome.attempted)
    report["failures"] = failures
    return report


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--t0", type=int, required=True,
                        help="parent's monotonic_ns() at spawn")
    parser.add_argument("--scratch", required=True,
                        help="empty directory this rep may fill")
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--reference", action="store_true")
    parser.add_argument("--variant", default="")
    parser.add_argument("--trace-out", default="")
    report = run_rep(parser.parse_args(argv))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
