"""Output checks: result digests, pins, and workload character.

The repo's contract is byte-identity — one ``SimulationResult`` for
one (config, program), whatever ran it — so correctness is checked on
sha256 digests of the result store's canonical bytes.  A digest is
kept with one short digest per top-level result field, so a mismatch
can name the first field that differs even when only the pinned
digests (``expected_digests.json``) are at hand.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from typing import Any, Dict, List, Optional

PINS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "expected_digests.json")
PINS_SCHEMA = "bench.digests/1"
#: The pins hold digests of runs at this seed only.
PINNED_SEED = 42

Digest = Dict[str, Any]


def result_digest(result: Any) -> Digest:
    """``{"sha256": whole result, "fields": {field: short digest}}``.

    ``result.sample["library"]`` is left out: it names the snapshot
    library's directory and whether this very call primed it, which
    is a fact about the run's surroundings, not its outcome.
    """
    from repro.serve.store import canonical_result_bytes, result_to_jsonable
    if "library" in result.sample:
        sample = {k: v for k, v in result.sample.items() if k != "library"}
        result = dataclasses.replace(result, sample=sample)
    fields = {
        name: hashlib.sha256(json.dumps(
            value, sort_keys=True, separators=(",", ":"),
            default=str).encode("utf-8")).hexdigest()[:16]
        for name, value in result_to_jsonable(result).items()}
    return {"sha256": hashlib.sha256(
                canonical_result_bytes(result)).hexdigest(),
            "fields": fields}


def first_difference(ours: Digest, theirs: Digest) -> Optional[str]:
    """Name of the first top-level result field whose digests differ."""
    if ours["sha256"] == theirs["sha256"]:
        return None
    for name in sorted(set(ours["fields"]) | set(theirs["fields"])):
        if ours["fields"].get(name) != theirs["fields"].get(name):
            return name
    return "(envelope)"


def compare_digests(label: str, ours: Dict[str, Digest],
                    theirs: Dict[str, Digest],
                    require_all: bool = True) -> List[str]:
    """Failure messages for every op whose two digests disagree.

    With ``require_all`` an op missing from either side is a failure;
    without it only ops present on both sides are compared (a
    reference run covers a subset of the ops).
    """
    problems = []
    for op in sorted(set(ours) | set(theirs)):
        if op not in ours or op not in theirs:
            if require_all:
                side = "first" if op not in ours else "second"
                problems.append(f"{label}: op {op} missing from the "
                                f"{side} side")
            continue
        field = first_difference(ours[op], theirs[op])
        if field is not None:
            problems.append(
                f"{label}: op {op} differs, first in result field "
                f"{field!r} ({ours[op]['sha256'][:12]} vs "
                f"{theirs[op]['sha256'][:12]})")
    return problems


def load_pins(path: str = PINS_PATH) -> Dict[str, Dict[str, Digest]]:
    """Pinned digests by workload, ``{}`` when the file is absent."""
    try:
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
    except FileNotFoundError:
        return {}
    if data.get("schema") != PINS_SCHEMA:
        raise ValueError(f"{path}: schema {data.get('schema')!r}, "
                         f"expected {PINS_SCHEMA!r}")
    return data["workloads"]


def write_pins(fresh: Dict[str, Dict[str, Digest]],
               path: str = PINS_PATH) -> List[str]:
    """Merge ``fresh`` into the pins file; returns what changed."""
    pins = load_pins(path)
    changed = []
    for workload, digests in sorted(fresh.items()):
        old = pins.get(workload, {})
        for op in sorted(set(old) | set(digests)):
            before = old.get(op, {}).get("sha256")
            after = digests.get(op, {}).get("sha256")
            if before != after:
                changed.append(f"{workload}/{op}: "
                               f"{(before or 'absent')[:12]} -> "
                               f"{(after or 'removed')[:12]}")
        pins[workload] = digests
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"schema": PINS_SCHEMA, "seed": PINNED_SEED,
                   "workloads": pins}, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return changed


# -- workload character --------------------------------------------------------


def traffic_character(results: List[Any]) -> Dict[str, float]:
    """Traffic shape of a set of results, from their counters alone.

    These are simulated statistics: they repeat exactly for a seed and
    must not move under a change that only speeds the simulator up.
    """
    def total(suffix: str, prefix: str = "") -> int:
        return sum(value for result in results
                   for key, value in result.counters.items()
                   if key.endswith(suffix) and key.startswith(prefix))

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    kinstr = sum(r.total_instructions for r in results) / 1000.0
    coherence = (total("sim.memory.read_misses")
                 + total("sim.memory.write_misses")
                 + total("sim.memory.upgrades"))
    messages = total("sim.transport.messages_sent")
    return {
        "memory.coh_tx_per_kinstr": ratio(coherence, kinstr),
        "memory.l1d_hit_ratio": ratio(total(".l1d.hits"),
                                      total(".l1d.lookups")),
        "memory.l2_hit_ratio": ratio(total(".l2.hits"),
                                     total(".l2.lookups")),
        "network.packets": float(total(".packets", "sim.network.")),
        "transport.msgs_per_kinstr": ratio(messages, kinstr),
        "transport.cross_process_ratio": ratio(
            messages - total("sim.transport.messages_same_process"),
            messages),
        "transport.messages_cross_machine": float(
            total("sim.transport.messages_cross_machine")),
    }


def character_failures(character: Dict[str, float],
                       limits: Dict[str, tuple]) -> List[str]:
    """Check ``{metric: (op, bound)}`` limits; ops are ``<=`` ``>=`` ``>``."""
    problems = []
    for metric, (op, bound) in sorted(limits.items()):
        value = character[metric]
        ok = {"<=": value <= bound, ">=": value >= bound,
              ">": value > bound}[op]
        if not ok:
            problems.append(f"workload character: {metric} = "
                            f"{value:.4g}, required {op} {bound}")
    return problems
