"""The repo's benchmark: every workload, every metric, one command.

    python3 bench/run.py [--workload NAME]... [--seed N] [--seconds S]
                         [--trace [0|1]] [--out FILE] [--repin]

Without ``--trace`` each selected workload runs its untraced pass:
reps (one fresh process each: set-up, then exactly one op) until
``--seconds`` of measuring are spent on it, at least three.  Reps go
round-robin across the selected workloads, so a noisy spell of the
host widens every workload's quartiles instead of shifting one
workload's figures.  Every end-to-end metric is reported as the
quartile over the reps on its better side (see :func:`reported`),
printed with the median and the other quartile.  With ``--trace``
each workload runs its traced pass instead:
three rounds of an untraced base rep and the workload's extras
(observer-armed reps, the serial sweep, the other mp carrier), whose
ratios of medians are the overhead metrics, and one rep with the
benchmark's spans around every layer, which gives the rest.

Every pass checks its outputs (digests against the pins at seed 42,
reps against each other, the op against a reference computed another
way, the workload's traffic character).  With one ``--workload`` the
last line printed is the driver's JSON object.  The analytical model
itself is not validated against hardware: the only error figure
reported is sampled-versus-full-detail cycles.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Any, Dict, List, Optional, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

import checks  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402

ENVELOPE_SCHEMA = "bench.run/1"
MIN_REPS = 3
#: Largest share of an op's wall-clock its self times may miss.
CLOSURE_LIMIT = 0.02
#: Largest share of a traced op's wall-clock that may lie inside no
#: wrapped entry point; measured at most 0.005 on the eight workloads.
UNATTRIBUTED_LIMIT = 0.05
#: A workload's pass still running by then kills its rep and counts it
#: failed: the driver gives one invocation 180 s.
PASS_DEADLINE_S = 150
#: Rounds of a traced pass: base and extra reps taken per ratio metric.
ROUNDS = 3
#: A traced pass starts another round only if it should end by then.
#: Three rounds take 50 s at most on a quiet host, but the host has
#: spells that triple every rep, and a pass killed at its deadline
#: fails where one with fewer rounds only reads looser.
TRACED_BUDGET_S = 100


def _overhead(extra: float, base: float) -> float:
    return extra / base - 1.0


#: The traced pass's extras: ``{workload: {metric: (workload of the
#: extra rep, its variant, f(extra wall_s, base wall_s))}}``.  Every
#: extra runs the base's configs another way, so digests must agree.
EXTRAS = {
    "inproc_share_8t": {
        "telemetry.on_overhead_frac":
            ("inproc_share_8t", "telemetry", _overhead),
        "profile.on_overhead_frac":
            ("inproc_share_8t", "profile", _overhead),
        "check.sanitize_overhead_frac":
            ("inproc_share_8t", "sanitize", _overhead),
        "obs.flight_overhead_frac":
            ("inproc_share_8t", "flight", _overhead),
    },
    "mp_pipe_8t": {
        "profile.on_overhead_frac_mp":
            ("mp_pipe_8t", "profile", _overhead),
    },
    "mp_tcp_8t": {
        "net.tcp_over_pipe_wall_ratio":
            ("mp_pipe_8t", "", lambda pipe, tcp: tcp / pipe),
    },
    "sweep_pool_8t": {
        "distrib.pool_speedup":
            ("sweep_pool_8t", "serial",
             lambda serial, pooled: serial / pooled),
    },
}


#: ``serve_mix`` is outside the driver's gate, and ``BENCHMARK.json``
#: holds no metric that no declared workload measures: its three live
#: here, with the keys they would have there.
UNGATED_METRICS = [
    {"name": "miss_latency_s", "unit": "s", "better": "lower",
     "bound": 0.25},
    {"name": "hit_latency_s", "unit": "s", "better": "lower",
     "bound": 0.25},
    {"name": "jobs_per_s", "unit": "jobs/s", "better": "higher",
     "bound": 0.25},
]


def load_declaration() -> Dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def end_to_end_metrics(declaration: Dict[str, Any]) -> List[Dict[str, Any]]:
    """Every end-to-end metric: the declared ones, then the ungated."""
    return declaration["end_to_end"] + UNGATED_METRICS


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop: a yardstick for the host,
    never applied to a metric.  Taken before every untraced rep, it
    tells ``compare.py`` whether two envelopes saw the same machine."""
    start = time.perf_counter()
    total = 0
    for i in range(2_000_000):
        total += i * i % 7
    return time.perf_counter() - start


def quartiles(values: Sequence[float]) -> List[float]:
    """``[q1, median, q3]``; a single value is its own quartiles."""
    if len(values) < 2:
        return [values[0]] * 3
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return [q1, q2, q3]


def reported(q: Sequence[float], better: str) -> float:
    """The figure reported for a metric with quartiles ``q`` over the
    reps: the quartile on its better side, the value a quarter of the
    reps beat.

    The sandbox is a shared host whose neighbours only ever make a rep
    slower, for milliseconds or for minutes, so the better quartile
    moves least with the host and the median follows it: over ten runs
    of one commit ``wall_s`` of ``inproc_share_8t`` spread 0.27 by its
    medians and 0.16 by its better quartiles (README, "The better
    quartile").  A change to the program moves both alike.
    """
    return q[0] if better == "lower" else q[2]


# -- reps --------------------------------------------------------------------------


class RepFailed(Exception):
    """A rep process died, hung, or printed no report."""


def run_rep(workload: str, seed: int, deadline: float,
            traced: bool = False, reference: bool = False,
            variant: str = "", trace_out: str = "") -> Dict[str, Any]:
    """Spawn one rep, wait for it, return its report.

    The rep gets its own process group, killed whole once the rep is
    over: a rep that died mid-op must not leave its workers behind.
    ``deadline`` (``time.monotonic()``) is when the whole pass must be
    done; the rep is killed then.
    """
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RepFailed("pass deadline reached before the rep started")
    os.makedirs(OUT, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="rep-", dir=OUT)
    command = [sys.executable, os.path.join(HERE, "rep.py"),
               "--workload", workload, "--seed", str(seed),
               "--scratch", scratch, "--variant", variant,
               "--trace-out", trace_out]
    command += ["--traced"] if traced else []
    command += ["--reference"] if reference else []
    command += ["--t0", str(time.monotonic_ns())]
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise RepFailed("rep killed at the pass deadline") from exc
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        shutil.rmtree(scratch, ignore_errors=True)
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RepFailed(f"rep exited {proc.returncode}")
    return json.loads(lines[-1])


def try_rep(workload: str, seed: int, deadline: float,
            **kwargs: Any) -> Dict[str, Any]:
    """:func:`run_rep`, a failure turned into a failed-rep record."""
    try:
        return run_rep(workload, seed, deadline, **kwargs)
    except RepFailed as exc:
        return {"attempted": 1, "failed": 1,
                "failures": [f"{workload}: {exc}"]}


def cross_check(workload: str, seed: int, reps: List[Dict[str, Any]],
                pins: Dict[str, Any]) -> List[str]:
    """Digest failures across the reps of one pass."""
    good = [rep for rep in reps if "digests" in rep]
    if not good:
        return []
    problems: List[str] = []
    first = good[0]["digests"]
    for index, rep in enumerate(good[1:], 1):
        problems += checks.compare_digests(
            f"{workload}: rep 0 vs rep {index}", first, rep["digests"])
    for rep in good:
        if "reference" in rep:
            problems += checks.compare_digests(
                f"{workload}: op vs reference", first, rep["reference"],
                require_all=False)
    if seed == checks.PINNED_SEED and workload in pins:
        problems += checks.compare_digests(
            f"{workload}: run vs expected_digests.json", first,
            pins[workload])
    return problems


# -- the untraced pass ----------------------------------------------------------------


def end_to_end(rep: Dict[str, Any]) -> Dict[str, float]:
    """The end-to-end metrics one rep measured: the four every workload
    has and the workload's own (``extra``)."""
    wall = rep["wall_s"]
    return {"setup_s": rep["setup_s"], "wall_s": wall,
            "sim_instr_per_host_s": rep["instructions"] / wall,
            "peak_rss_mb": rep["peak_rss_mb"], **rep["extra"]}


def summarise(workload: str, seed: int, reps: List[Dict[str, Any]],
              pins: Dict[str, Any], better: Dict[str, str]) -> Dict[str, Any]:
    """One workload's untraced record from its reps; ``better`` is the
    declared direction of every end-to-end metric."""
    failures = [m for rep in reps for m in rep["failures"]]
    digest_failures = cross_check(workload, seed, reps, pins)
    good = [rep for rep in reps if "digests" in rep]
    samples: Dict[str, List[float]] = {}
    for rep in good:
        for metric, value in end_to_end(rep).items():
            samples.setdefault(metric, []).append(value)
    return {
        "workload": workload, "reps": len(reps),
        "attempted": sum(rep["attempted"] for rep in reps),
        "failed": (sum(rep["failed"] for rep in reps)
                   + len(digest_failures)),
        "failures": failures + digest_failures,
        "host_calib_s": quartiles([rep["host_calib_s"] for rep in reps]),
        "samples": samples,
        "quartiles": {m: quartiles(v) for m, v in samples.items()},
        "reported": {m: reported(quartiles(v), better[m])
                     for m, v in samples.items()},
        "digests": good[0]["digests"] if good else {},
        "character": good[0]["character"] if good else {},
    }


def untraced_pass(selected: Sequence[str], seed: int, seconds: float,
                  pins: Dict[str, Any],
                  better: Dict[str, str]) -> List[Dict[str, Any]]:
    """Reps of every selected workload, one of each in turn, until
    each has had ``seconds`` of measuring and at least three reps."""
    deadline = time.monotonic() + PASS_DEADLINE_S * len(selected)
    reps: Dict[str, List[Dict[str, Any]]] = {w: [] for w in selected}
    costs: Dict[str, List[float]] = {w: [] for w in selected}
    unfinished = list(selected)
    while unfinished:
        for workload in list(unfinished):
            began = time.perf_counter()
            calib = calibrate()
            reps[workload].append(try_rep(workload, seed, deadline,
                                          reference=not reps[workload]))
            reps[workload][-1]["host_calib_s"] = calib
            spent = costs[workload]
            spent.append(time.perf_counter() - began)
            if (len(spent) >= MIN_REPS
                    and sum(spent) + statistics.median(spent) > seconds):
                unfinished.remove(workload)
    return [summarise(w, seed, reps[w], pins, better) for w in selected]


# -- the traced pass -------------------------------------------------------------------


def traced_pass(workload: str, seed: int, pins: Dict[str, Any],
                names: Sequence[str]) -> Dict[str, Any]:
    """Per-layer metrics of one workload; ``names`` are the declared
    metrics, all of which are reported (0 where the layer is idle).

    The untraced reps go in :data:`ROUNDS` rounds of base, then each
    extra, so that host drift lands on both sides of every ratio; the
    traced rep runs after the first round.  A round that would end past
    :data:`TRACED_BUDGET_S` is not started.
    """
    started = time.monotonic()
    deadline = started + PASS_DEADLINE_S
    extras = EXTRAS.get(workload, {})
    bases: List[Dict[str, Any]] = []
    extra_reps: Dict[str, List[Dict[str, Any]]] = {m: [] for m in extras}
    traced: Dict[str, Any] = {}
    round_began = started
    for round_ in range(ROUNDS):
        now = time.monotonic()
        # Time spent so far plus what the last round cost.
        if (now - started) + (now - round_began) > TRACED_BUDGET_S:
            break
        round_began = now
        bases.append(try_rep(workload, seed, deadline,
                             reference=not bases))
        for metric, (of, variant, _ratio) in extras.items():
            extra_reps[metric].append(
                try_rep(of, seed, deadline, variant=variant))
        if round_ == 0:
            traced = try_rep(
                workload, seed, deadline, traced=True,
                trace_out=os.path.join(OUT, f"trace-{workload}.json"))
    reps = bases + [traced] + [r for rs in extra_reps.values() for r in rs]
    metrics = dict.fromkeys(names, 0.0)
    ratios: Dict[str, List[float]] = {}
    # Every rep of the pass ran the same configs — observers armed or
    # not, pipes or TCP, pooled or serial — so all digests must agree.
    problems = cross_check(workload, seed, reps, pins)
    if all("wall_s" in rep for rep in reps):
        base_walls = [rep["wall_s"] for rep in bases]
        base_wall = statistics.median(base_walls)
        metrics.update(traced["layers"])
        # The base reps' facts go last: where a fact is a time, the
        # untraced value is the one to keep.
        for source in (traced["character"], traced["facts"],
                       {k: statistics.median(rep["facts"][k]
                                             for rep in bases)
                        for k in bases[0]["facts"]}):
            metrics.update({k: v for k, v in source.items()
                            if k in metrics})
        metrics["host.calib_s"] = calibrate()
        metrics["bench.trace_overhead_frac"] = _overhead(
            traced["wall_s"], base_wall)
        for metric, (_of, _variant, ratio) in extras.items():
            walls = [rep["wall_s"] for rep in extra_reps[metric]]
            metrics[metric] = ratio(statistics.median(walls), base_wall)
            ratios[metric] = quartiles(
                [ratio(w, b) for w, b in zip(walls, base_walls)])
        closure = metrics["bench.self_time_closure_frac"]
        if closure > CLOSURE_LIMIT:
            problems.append(f"{workload}: self times miss the op's "
                            f"wall-clock by {closure:.1%} (limit "
                            f"{CLOSURE_LIMIT:.0%})")
        unattributed = metrics["bench.unattributed_frac"]
        if unattributed > UNATTRIBUTED_LIMIT:
            problems.append(f"{workload}: {unattributed:.1%} of the op "
                            f"is inside no wrapped entry point (limit "
                            f"{UNATTRIBUTED_LIMIT:.0%})")
    return {
        "workload": workload, "reps": len(reps),
        "attempted": sum(rep["attempted"] for rep in reps),
        "failed": sum(rep["failed"] for rep in reps) + len(problems),
        "failures": [m for rep in reps for m in rep["failures"]] + problems,
        "metrics": metrics,
        # ``[q1, median, q3]`` of the per-round ratios behind each
        # ratio-of-medians metric.
        "ratio_quartiles": ratios,
        "base_wall_s": [rep.get("wall_s") for rep in bases],
        "digests": bases[0].get("digests", {}),
    }


# -- output ------------------------------------------------------------------------------


def git_commit() -> Optional[str]:
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True,
                              check=False)
    except OSError:
        return None
    return done.stdout.strip() or None


def print_pass(record: Dict[str, Any], units: Dict[str, str],
               traced: bool) -> None:
    workload = record["workload"]
    failed_frac = record["failed"] / record["attempted"]
    print(f"== {workload} ({'traced' if traced else 'untraced'}, "
          f"{record['reps']} reps)  ops_failed_frac = {failed_frac:g} "
          f"({record['failed']}/{record['attempted']})")
    if traced:
        idle = [n for n, v in record["metrics"].items() if v == 0]
        for name, value in record["metrics"].items():
            if value != 0:
                note = "  (exact)" if name in layers.EXACT_COUNTS else ""
                if name in record["ratio_quartiles"]:
                    q1, _, q3 = record["ratio_quartiles"][name]
                    note = f"  [{q1:.4g} .. {q3:.4g}] per round"
                print(f"  {name:34s} {value:14.6g} {units[name]}{note}")
        print(f"  0 (layer idle on this workload): {', '.join(idle)}")
    else:
        for name, (q1, median, q3) in record["quartiles"].items():
            print(f"  {name:22s} {record['reported'][name]:14.6g} "
                  f"{units[name]:8s} [{q1:.6g} .. {median:.6g} .. "
                  f"{q3:.6g}]")
        q1, median, q3 = record["host_calib_s"]
        print(f"  (host.calib_s before each rep {median:.4g} s "
              f"[{q1:.4g} .. {q3:.4g}])")
    for message in record["failures"]:
        print(f"  FAILED {message}")


def driver_line(record: Dict[str, Any], declared: List[Dict[str, Any]],
                traced: bool) -> str:
    """The driver's JSON object for one workload.

    The driver wants every declared end-to-end metric from every
    workload and none ever 0, so here, and nowhere else, a metric the
    workload does not measure (the four times of ``ckpt_library_8t``
    on the other workloads) is filled in with the workload's
    ``wall_s``.
    """
    if traced:
        values = record["metrics"]
    else:
        values = dict(record["reported"])
        for metric in declared:
            if "wall_s" in values:
                values.setdefault(metric["name"], values["wall_s"])
    return json.dumps({
        "correct": (record["failed"] == 0
                    and all(m["name"] in values for m in declared)),
        "attempted": max(record["attempted"], 1),
        "failed": record["failed"],
        "metrics": {m["name"]: {"value": values.get(m["name"], 0.0),
                                "unit": m["unit"]} for m in declared},
    })


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", action="append", default=[],
                        metavar="NAME", help="run only this workload "
                        "(repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=checks.PINNED_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per workload on the "
                        "untraced pass (default: run_seconds of "
                        "BENCHMARK.json)")
    parser.add_argument("--trace", nargs="?", type=int, const=1,
                        default=0, choices=(0, 1),
                        help="run the traced pass (per-layer metrics) "
                        "instead of the untraced one")
    parser.add_argument("--out", default=None, metavar="FILE",
                        help="envelope path (default: "
                        "bench/out/<timestamp>.json)")
    parser.add_argument("--repin", action="store_true",
                        help="rewrite expected_digests.json from this "
                        "run (seed 42 only) and print what changed")
    args = parser.parse_args(argv)

    unknown = [n for n in args.workload if n not in workloads.BY_NAME]
    if unknown:
        parser.error(f"unknown workload {', '.join(unknown)}; choose "
                     f"from {', '.join(workloads.BY_NAME)}")
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("bench: no src/repro beside bench/; nothing to measure",
              file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    if nproc < workloads.FLEET:
        print(f"bench: needs {workloads.FLEET} CPUs for its pinned "
              f"fleets, found {nproc}", file=sys.stderr)
        return 2
    if args.repin and args.seed != checks.PINNED_SEED:
        parser.error(f"--repin pins seed {checks.PINNED_SEED} only")

    # A terminated run must still reach run_rep's ``finally``: reps sit
    # in process groups of their own and would outlive it.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    declaration = load_declaration()
    traced = bool(args.trace)
    gated = declaration["per_layer" if traced else "end_to_end"]
    declared = gated if traced else end_to_end_metrics(declaration)
    names = [m["name"] for m in declared]
    units = {m["name"]: m["unit"] for m in declared}
    seconds = (args.seconds if args.seconds is not None
               else declaration["run_seconds"])
    selected = args.workload or list(workloads.BY_NAME)
    pins = {} if args.repin else checks.load_pins()

    if traced:
        records = []
        for workload in selected:
            records.append(traced_pass(workload, args.seed, pins, names))
            print_pass(records[-1], units, traced)
    else:
        records = untraced_pass(
            selected, args.seed, seconds, pins,
            {m["name"]: m["better"] for m in declared})
        for record in records:
            print_pass(record, units, traced)

    if args.repin:
        for change in checks.write_pins(
                {r["workload"]: r["digests"] for r in records}):
            print(f"repinned {change}")

    envelope = {
        "schema": ENVELOPE_SCHEMA,
        "commit": git_commit(), "seed": args.seed,
        "python": platform.python_version(), "nproc": nproc,
        "host.calib_s": calibrate(),
        "pass": "traced" if traced else "untraced",
        "model_validation": "analytical model unvalidated against "
                            "hardware; no accuracy figure applies",
        "workloads": {r["workload"]: r for r in records},
    }
    stamp = datetime.datetime.now().strftime("%Y%m%dT%H%M%S")
    path = args.out or os.path.join(OUT, f"{stamp}-{os.getpid()}.json")
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(envelope, handle, indent=1)
    print(f"envelope: {os.path.relpath(path)}")
    if len(records) == 1:
        print(driver_line(records[0], gated, traced))
    return 0 if all(r["failed"] == 0 for r in records) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
