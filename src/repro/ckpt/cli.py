"""``repro resume``: continue a checkpointed simulation.

Loads the newest complete checkpoint from a ``--ckpt-dir`` (or one
named snapshot), drives the restored simulator to completion with the
same crash-recovery loop the original run used, and reports it through
``repro run``'s own report — so resumed and uninterrupted runs can be
diffed mechanically (the CI resume-equivalence smoke job does exactly
that).
"""

from __future__ import annotations

import argparse
import sys


def add_resume_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("dir",
                        help="checkpoint directory (the --ckpt-dir of "
                             "the original run)")
    parser.add_argument("--name", default=None, metavar="CKPT",
                        help="resume a specific ckpt-NNNNNNNN snapshot "
                             "(default: the latest complete one)")
    parser.add_argument("--json", action="store_true",
                        help="emit machine-readable JSON instead of "
                             "text")
    from repro.cli import add_telemetry_arguments
    add_telemetry_arguments(parser)


def run_resume(args: argparse.Namespace) -> int:
    from repro.cli import print_result, telemetry_from_args
    from repro.ckpt.recovery import resume_with_recovery
    from repro.common.errors import CheckpointError
    try:
        result, simulator = resume_with_recovery(
            args.dir, args.name, telemetry=telemetry_from_args(args))
    except CheckpointError as exc:
        print(f"resume: {exc}", file=sys.stderr)
        return 1
    origin = args.dir + (f" ({args.name})" if args.name else "")
    print_result(simulator, result, args.json, origin=origin)
    return 0
