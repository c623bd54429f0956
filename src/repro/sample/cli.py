"""``repro sample`` — manage the snapshot library from the shell.

Three verbs over a library directory (:mod:`repro.sample.library`):

* ``ls`` lists every complete entry with its workload descriptor,
  fast-forward target and backend;
* ``prime`` fast-forwards one target (named by ``repro run``'s target
  flags) and files the switch-point checkpoint, so later runs, sweeps
  and serve jobs fork instead of re-running the prefix;
* ``gc`` bounds the library's disk footprint, keeping the most
  recently used entries and dropping the rest — and every entry no
  run can fork (another layout version's) and every stage of a dead
  primer.  Names a library never writes are left alone.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Tuple


def add_sample_arguments(parser: argparse.ArgumentParser) -> None:
    sub = parser.add_subparsers(dest="sample_command", required=True)

    ls = sub.add_parser("ls", help="list the library's entries")
    ls.add_argument("--library", required=True, metavar="DIR",
                    help="snapshot library directory")
    ls.add_argument("--json", action="store_true",
                    help="machine-readable output")

    prime = sub.add_parser(
        "prime",
        help="fast-forward one workload to its target and file the "
             "switch-point checkpoint")
    prime.add_argument("--library", required=True, metavar="DIR",
                       help="snapshot library directory")
    prime.add_argument("--ff-until", type=int, required=True,
                       metavar="CYCLES",
                       help="fast-forward target in simulated cycles")
    from repro.cli import add_target_arguments
    add_target_arguments(prime)
    prime.add_argument("--backend", choices=("inproc", "mp"),
                       default="inproc",
                       help="execution backend for the primer run")

    gc = sub.add_parser(
        "gc", help="drop all but the most recently used entries")
    gc.add_argument("--library", required=True, metavar="DIR",
                    help="snapshot library directory")
    gc.add_argument("--keep", type=int, default=8, metavar="N",
                    help="entries to keep, newest first (default 8)")


#: What ``ls`` shows of an entry's manifest (not its config or files).
_LS_FIELDS = ("descriptor", "prefix_hash", "ff_until", "backend",
              "num_tiles", "events")


def _entry_mtime(library, key: str) -> float:
    """Last-use time of an entry (its manifest's mtime)."""
    from repro.ckpt.store import manifest_path
    try:
        return os.path.getmtime(manifest_path(library.entry_dir(key)))
    except OSError:
        return 0.0


def _command_ls(args: argparse.Namespace) -> int:
    from repro.sample.library import SnapshotLibrary
    library = SnapshotLibrary(args.library)
    entries = [(key, {field: meta.get(field) for field in _LS_FIELDS})
               for key, meta in library.entries()]
    if args.json:
        print(json.dumps(
            [{"key": key, **meta} for key, meta in entries], indent=2))
        return 0
    if not entries:
        print(f"library {args.library}: no entries")
        return 0
    print(f"library {args.library}: {len(entries)} entry(ies)")
    for key, meta in entries:
        descriptor = meta["descriptor"]
        workload = descriptor.get(
            "workload", descriptor.get("sha256", "?")[:12])
        print(f"  {key}  {workload}"
              f" x{descriptor.get('nthreads', '?')}"
              f" scale={descriptor.get('scale', '?')}"
              f"  ff_until={meta['ff_until']}"
              f"  backend={meta['backend']}"
              f"  tiles={meta['num_tiles']}")
    return 0


def _command_prime(args: argparse.Namespace) -> int:
    from repro.cli import target_config
    from repro.sample.library import SnapshotLibrary
    config, program = target_config(args)
    config.distrib.backend = args.backend
    config.sample.ff_until = args.ff_until
    config.validate()
    key, primed = SnapshotLibrary(args.library).ensure(config, program)
    verb = "primed" if primed else "already present"
    print(f"entry {key} {verb} ({program.workload} x{program.nthreads}, "
          f"ff_until={args.ff_until})")
    return 0


def _command_gc(args: argparse.Namespace) -> int:
    from repro.ckpt.store import reclaim_stages
    from repro.common.errors import SampleError
    from repro.sample.library import SnapshotLibrary
    library = SnapshotLibrary(args.library)
    dropped = 0
    for name in reclaim_stages(args.library):
        print(f"dropped {name} (stage of a dead primer)")
        dropped += 1
    ranked: List[Tuple[float, str]] = []
    # Only what a library wrote, never a live primer's stage: a library
    # pointed at the wrong directory must not empty it.
    for key in library.keys():
        try:
            library.meta(key)
        except SampleError as exc:
            # Another layout version's: no run can ever fork it, so it
            # does not count against --keep.
            library.drop(key)
            print(f"dropped {key} ({exc})")
            dropped += 1
        else:
            ranked.append((_entry_mtime(library, key), key))
    ranked.sort(reverse=True)
    keep = max(args.keep, 0)
    for _mtime, key in ranked[keep:]:
        if library.drop(key):
            print(f"dropped {key}")
            dropped += 1
    print(f"kept {min(len(ranked), keep)}, dropped {dropped}")
    return 0


def run_sample(args: argparse.Namespace) -> int:
    from repro.common.errors import SampleError
    verbs = {"ls": _command_ls, "prime": _command_prime, "gc": _command_gc}
    try:
        return verbs[args.sample_command](args)
    except SampleError as exc:
        print(f"sample {args.sample_command}: {exc}", file=sys.stderr)
        return 1
