"""Compare two envelopes of ``run.py``: A (the base) against B.

    python3 bench/compare.py A.json B.json

One row per (workload, metric) that both envelopes measured: both
reported figures (``run.reported``: the quartile over the reps on the
metric's better side) with their quartiles, the ratio B/A (base A),
the metric's bound from ``BENCHMARK.json`` and a verdict.  ``worse``
and ``better`` need the figures to differ by more than the bound, by
more than the run-to-run spread (the wider of the two sides'
interquartile ranges over their medians) *and*, for times and rates,
by more than the host's own calibration loop moved between the
envelopes.  A row whose
spread exceeds the bound, or whose difference does but may be the
host's, is ``unresolved``, never ``same``.  Two traced envelopes are
compared on the exact counts instead: every one must be identical.

Exit status is nonzero on any ``worse`` row, on a higher failed share
of operations, or on an exact count that moved.  Run on two envelopes
of one commit, this is the A/A agreement check.
"""

from __future__ import annotations

import json
import sys
from typing import Any, Dict, List, Sequence, Tuple

from layers import EXACT_COUNTS
from run import end_to_end_metrics, load_declaration, reported


def spread(q: Sequence[float]) -> float:
    """Interquartile range over the median."""
    return (q[2] - q[0]) / q[1] if q[1] else 0.0


def verdict(a: Sequence[float], b: Sequence[float], better: str,
            bound: float, drift: float = 0.0) -> Tuple[str, float]:
    """``(verdict, ratio B/A)`` for one metric's ``[q1, median, q3]``.

    ``drift`` is how far the host itself moved between the two sides
    (:func:`host_drift`): a difference no larger than that is no
    verdict on the code.
    """
    base = reported(a, better)
    ratio = reported(b, better) / base if base else float("inf")
    worse_by = (ratio - 1.0) if better == "lower" else (1.0 - ratio)
    noise = max(spread(a), spread(b))
    if abs(worse_by) > bound and abs(worse_by) > max(noise, drift):
        return ("worse" if worse_by > 0 else "better"), ratio
    if noise > bound or abs(worse_by) > bound:
        return "unresolved", ratio
    return "same", ratio


def host_drift(record_a: Dict[str, Any], record_b: Dict[str, Any]) -> float:
    """``|B/A - 1|`` of the calibration loop's medians, taken before
    each of the workload's reps: the machine's own change of speed
    between the two envelopes."""
    return abs(record_b["host_calib_s"][1] / record_a["host_calib_s"][1]
               - 1.0)


def compare_untraced(a: Dict[str, Any], b: Dict[str, Any],
                     declared: List[Dict[str, Any]]) -> List[tuple]:
    """Rows ``(workload, metric, qa, qb, ratio, bound, verdict)``."""
    rows = []
    for workload, record_a in a["workloads"].items():
        record_b = b["workloads"].get(workload)
        if record_b is None:
            continue
        for metric in declared:
            name = metric["name"]
            qa = record_a["quartiles"].get(name)
            qb = record_b["quartiles"].get(name)
            if qa is None or qb is None:
                continue
            # A slower host moves times and rates, not memory.
            timed = metric["unit"].split("/")[-1] == "s"
            word, ratio = verdict(
                qa, qb, metric["better"], metric["bound"],
                host_drift(record_a, record_b) if timed else 0.0)
            rows.append((workload, name, qa, qb, ratio, metric["bound"],
                         word))
    return rows


def failed_share_rose(a: Dict[str, Any], b: Dict[str, Any]) -> List[str]:
    problems = []
    for workload, record_a in a["workloads"].items():
        record_b = b["workloads"].get(workload)
        if record_b is None:
            continue
        share_a = record_a["failed"] / record_a["attempted"]
        share_b = record_b["failed"] / record_b["attempted"]
        if share_b > share_a:
            problems.append(f"{workload}: ops_failed_frac rose from "
                            f"{share_a:g} to {share_b:g}")
    return problems


def moved_counts(a: Dict[str, Any], b: Dict[str, Any]) -> List[str]:
    """Exact counts that differ between two traced envelopes."""
    problems = []
    for workload, record_a in a["workloads"].items():
        record_b = b["workloads"].get(workload)
        if record_b is None:
            continue
        for name in sorted(EXACT_COUNTS):
            va = record_a["metrics"].get(name)
            vb = record_b["metrics"].get(name)
            if va != vb:
                problems.append(f"{workload}: exact count {name} moved "
                                f"from {va!r} to {vb!r}")
    return problems


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    envelopes = []
    for path in argv:
        with open(path, encoding="utf-8") as handle:
            envelopes.append(json.load(handle))
    a, b = envelopes
    if a["pass"] != b["pass"]:
        print(f"compare: {argv[0]} is a {a['pass']} pass, {argv[1]} a "
              f"{b['pass']} one", file=sys.stderr)
        return 2
    problems = failed_share_rose(a, b)
    if a["pass"] == "traced":
        problems += moved_counts(a, b)
        for workload, record_a in a["workloads"].items():
            record_b = b["workloads"].get(workload, {"metrics": {}})
            for name, va in record_a["metrics"].items():
                vb = record_b["metrics"].get(name)
                if vb is not None and (va or vb):
                    ratio = f"{vb / va:8.3f}x of A" if va else "       -"
                    print(f"{workload:18s} {name:32s} {va:12.6g} "
                          f"{vb:12.6g} {ratio}")
    else:
        rows = compare_untraced(a, b,
                                end_to_end_metrics(load_declaration()))
        for workload, record_a in a["workloads"].items():
            if workload in b["workloads"]:
                drift = host_drift(record_a, b["workloads"][workload])
                print(f"{workload:18s} host.calib_s moved {drift:.1%} "
                      f"between the envelopes")
        for workload, name, qa, qb, ratio, bound, word in rows:
            print(f"{workload:18s} {name:21s} "
                  f"A [{qa[0]:.4g} .. {qa[1]:.4g} .. {qa[2]:.4g}]  "
                  f"B [{qb[0]:.4g} .. {qb[1]:.4g} .. {qb[2]:.4g}]  "
                  f"B/A {ratio:6.3f} (base A)  bound {bound:.2f}  {word}")
        problems += [f"{w}: {n} is worse ({r:.3f}x of A, bound {bd:.2f})"
                     for w, n, _qa, _qb, r, bd, word in rows
                     if word == "worse"]
    for problem in problems:
        print(f"compare: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
