"""The ``python -m repro check`` entry point.

Runs the static determinism lints (including the P-rule wire-protocol
conformance checks) over the simulator source tree, the bounded-depth
coherence-protocol exploration against the real engine, and the
membership/migration model checker, exiting nonzero if any of them
finds anything.  With explicit paths the command lints just those
paths (the explorers are then opt-in via ``--protocol`` /
``--membership``) so a single fixture can be checked fast::

    python -m repro check                      # full tree + explorers
    python -m repro check path/to/file.py      # lint one file
    python -m repro check --depth 5 --tiles 2  # deeper, smaller config
    python -m repro check --membership-depth 6 # quicker membership run
    python -m repro check --format github      # CI annotations
    python -m repro check --accept-wire-schema # record wire schema
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path
from typing import List

from repro.check.lint import (
    LintFinding,
    accept_wire_schema,
    lint_paths,
    lint_tree,
)
from repro.check.membership import MembershipExplorer
from repro.check.protocol import ProtocolExplorer


def add_check_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("paths", nargs="*",
                        help="files or directories to lint (default: "
                             "the repro package source tree)")
    parser.add_argument("--no-lint", action="store_true",
                        help="skip the determinism lints")
    parser.add_argument("--no-protocol", action="store_true",
                        help="skip the protocol state-space explorer")
    parser.add_argument("--protocol", action="store_true",
                        help="run the explorer even when explicit lint "
                             "paths are given")
    parser.add_argument("--tiles", type=int, default=3,
                        help="explorer: target tiles (default 3)")
    parser.add_argument("--lines", type=int, default=1,
                        help="explorer: distinct cache lines (default 1)")
    parser.add_argument("--depth", type=int, default=4,
                        help="explorer: interleaving depth (default 4)")
    parser.add_argument("--coherence", choices=("msi", "mesi"),
                        default="msi",
                        help="explorer: protocol (default msi)")
    parser.add_argument("--directory", default="full_map",
                        choices=("full_map", "limited", "limitless"),
                        help="explorer: directory type (default full_map)")
    parser.add_argument("--no-membership", action="store_true",
                        help="skip the membership/migration model "
                             "checker")
    parser.add_argument("--membership", action="store_true",
                        help="run the membership checker even when "
                             "explicit lint paths are given")
    parser.add_argument("--membership-depth", type=int, default=9,
                        help="membership: interleaving depth "
                             "(default 9)")
    parser.add_argument("--membership-workers", type=int, default=2,
                        help="membership: initial workers (default 2)")
    parser.add_argument("--membership-max-workers", type=int,
                        default=3,
                        help="membership: join capacity (default 3)")
    parser.add_argument("--membership-shards", type=int, default=2,
                        help="membership: shards (default 2)")
    parser.add_argument("--membership-jobs", type=int, default=1,
                        help="membership: serve jobs (default 1)")
    parser.add_argument("--format", choices=("text", "github"),
                        default="text", dest="output_format",
                        help="finding format: human text or GitHub "
                             "Actions ::error annotations")
    parser.add_argument("--json", action="store_true",
                        help="emit machine-readable JSON")
    parser.add_argument("--accept-wire-schema", action="store_true",
                        help="record the current wire schema (frame "
                             "dataclasses and payload shapes) as the "
                             "reference (after a WIRE_VERSION bump)")


def _github_escape(text: str) -> str:
    """Escape a message for a GitHub workflow command."""
    return text.replace("%", "%25").replace("\r", "%0D") \
        .replace("\n", "%0A")


def _relative_to_cwd(path: str) -> str:
    try:
        return str(Path(path).resolve().relative_to(Path.cwd()))
    except ValueError:
        return path


def _annotate_finding(finding: LintFinding) -> str:
    return (f"::error file={_relative_to_cwd(finding.path)},"
            f"line={finding.line},col={finding.col},"
            f"title={finding.rule}::"
            f"{_github_escape(finding.message)}")


def _annotate_violation(title: str, rendered: str) -> str:
    return f"::error title={title}::{_github_escape(rendered)}"


def _run_accept(args: argparse.Namespace) -> int:
    from repro.check.lint import _SCHEMA_PATH
    record = accept_wire_schema()
    print(json.dumps(record, indent=2) if args.json else
          f"recorded wire schema v{record['wire_version']} "
          f"{record['fingerprint']} at {_SCHEMA_PATH}")
    return 0


def run_check(args: argparse.Namespace) -> int:
    if args.accept_wire_schema:
        return _run_accept(args)

    github = args.output_format == "github"
    failed = False
    payload: dict = {}

    if not args.no_lint:
        if args.paths:
            findings = lint_paths([Path(p) for p in args.paths])
        else:
            findings = lint_tree()
        payload["lint"] = [f.__dict__ for f in findings]
        if findings:
            failed = True
        if not args.json:
            for finding in findings:
                print(_annotate_finding(finding) if github
                      else finding.render())
            scope = ", ".join(args.paths) if args.paths \
                else "repro source tree"
            print(f"lint: {len(findings)} finding(s) in {scope}")

    run_explorer = not args.no_protocol and \
        (not args.paths or args.protocol)
    if run_explorer:
        explorer = ProtocolExplorer(
            tiles=args.tiles, lines=args.lines, depth=args.depth,
            protocol=args.coherence, directory_type=args.directory)
        report = explorer.explore()
        payload["protocol"] = {
            "tiles": report.tiles,
            "lines": report.lines,
            "depth": report.depth,
            "protocol": report.protocol,
            "directory_type": report.directory_type,
            "explored_states": report.explored_states,
            "unique_states": report.unique_states,
            "transitions": report.transitions,
            "violations": [v.render() for v in report.violations],
            "unreachable": report.unreachable,
        }
        if not report.ok:
            failed = True
        if not args.json:
            print(report.render())
            if github:
                for violation in report.violations:
                    print(_annotate_violation("protocol-explorer",
                                              violation.render()))

    run_membership = not args.no_membership and \
        (not args.paths or args.membership)
    if run_membership:
        membership = MembershipExplorer(
            workers=args.membership_workers,
            max_workers=args.membership_max_workers,
            shards=args.membership_shards,
            jobs=args.membership_jobs,
            depth=args.membership_depth)
        report = membership.explore()
        payload["membership"] = {
            "workers": report.workers,
            "max_workers": report.max_workers,
            "shards": report.shards,
            "jobs": report.jobs,
            "depth": report.depth,
            "explored_states": report.explored_states,
            "unique_states": report.unique_states,
            "transitions": report.transitions,
            "crash_injections": report.crash_injections,
            "crash_phases": report.crash_phases,
            "violations": [v.render() for v in report.violations],
        }
        if not report.ok:
            failed = True
        if not args.json:
            print(report.render())
            if github:
                for violation in report.violations:
                    print(_annotate_violation("membership-explorer",
                                              violation.render()))

    if args.json:
        payload["ok"] = not failed
        print(json.dumps(payload, indent=2))
    return 1 if failed else 0


def main(argv: List[str] = None) -> int:  # pragma: no cover - thin shim
    parser = argparse.ArgumentParser(prog="repro check")
    add_check_arguments(parser)
    return run_check(parser.parse_args(argv))
