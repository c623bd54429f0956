"""run.py's command line, its two passes, and the declaration it reads."""

import json

import pytest

import layers
import run
import workloads


def test_unknown_workload_is_an_error(capsys):
    with pytest.raises(SystemExit) as exit_info:
        run.main(["--workload", "no_such_workload"])
    assert exit_info.value.code == 2
    message = capsys.readouterr().err
    assert "no_such_workload" in message and "inproc_hit_8t" in message


def fake_pass(calls):
    def untraced_pass(selected, seed, seconds, pins, better):
        calls.append((list(selected), seed, seconds))
        return [{"workload": workload, "reps": 3, "attempted": 3,
                 "failed": 0, "failures": [], "samples": {},
                 "host_calib_s": [0.1, 0.1, 0.1],
                 "quartiles": {"wall_s": [1.0, 2.0, 3.0],
                               "sim_instr_per_host_s": [4.0, 5.0, 6.0]},
                 "reported": {"wall_s": 1.0, "sim_instr_per_host_s": 6.0},
                 "digests": {}, "character": {}}
                for workload in selected]
    return untraced_pass


def test_workload_selection(monkeypatch, tmp_path, capsys):
    calls = []
    monkeypatch.setattr(run, "untraced_pass", fake_pass(calls))
    out = tmp_path / "envelope.json"
    code = run.main(["--workload", "serve_mix", "--workload",
                     "mp_tcp_8t", "--seed", "5", "--seconds", "1",
                     "--out", str(out)])
    assert code == 0
    assert calls == [(["serve_mix", "mp_tcp_8t"], 5, 1.0)]
    envelope = json.loads(out.read_text())
    assert envelope["schema"] == run.ENVELOPE_SCHEMA
    assert list(envelope["workloads"]) == ["serve_mix", "mp_tcp_8t"]
    # Two workloads: no single driver line.
    assert not capsys.readouterr().out.rstrip().endswith("}")


def test_default_selects_every_workload(monkeypatch, tmp_path):
    calls = []
    monkeypatch.setattr(run, "untraced_pass", fake_pass(calls))
    run.main(["--out", str(tmp_path / "e.json")])
    assert calls == [(list(workloads.BY_NAME), 42,
                      run.load_declaration()["run_seconds"])]


def test_driver_line_fills_what_the_workload_does_not_measure(
        monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "untraced_pass", fake_pass([]))
    out = tmp_path / "e.json"
    run.main(["--workload", "inproc_hit_8t", "--out", str(out)])
    line = json.loads(capsys.readouterr().out.rstrip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    declared = run.load_declaration()["end_to_end"]
    assert list(line["metrics"]) == [m["name"] for m in declared]
    assert line["correct"] is True
    values = {n: m["value"] for n, m in line["metrics"].items()}
    # Measured metrics read their reported figures, the others the
    # reported wall_s.  None is 0.
    assert values["wall_s"] == 1.0 and values["sim_instr_per_host_s"] == 6.0
    assert values["ckpt_run_s"] == 1.0
    assert all(values.values())
    # The envelope holds only what was measured.
    record = json.loads(out.read_text())["workloads"]["inproc_hit_8t"]
    assert set(record["quartiles"]) == {"wall_s", "sim_instr_per_host_s"}


def fake_rep(wall=1.0, **more):
    return dict({"attempted": 1, "failed": 0, "failures": [],
                 "digests": {}, "character": {}, "facts": {},
                 "extra": {}, "setup_s": 0.1, "wall_s": wall,
                 "instructions": 1000, "peak_rss_mb": 30.0}, **more)


def test_untraced_reps_go_round_robin(monkeypatch):
    order = []
    walls = iter([3.0, 9.0, 2.0, 9.0, 1.0, 9.0, 4.0, 9.0])

    def try_rep(workload, seed, deadline, reference=False):
        order.append((workload, reference))
        return fake_rep(next(walls),
                        extra={"x_s": 2.0} if workload == "b" else {})

    monkeypatch.setattr(run, "try_rep", try_rep)
    monkeypatch.setattr(run, "MIN_REPS", 4)
    a, b = run.untraced_pass(
        ["a", "b"], 1, 0.0, {},
        {"setup_s": "lower", "wall_s": "lower", "peak_rss_mb": "lower",
         "sim_instr_per_host_s": "higher", "x_s": "lower"})
    # One rep of each in turn, MIN_REPS of each though no time is
    # allowed; only a workload's first rep computes the reference.
    assert order == [("a", True), ("b", True)] + [("a", False),
                                                  ("b", False)] * 3
    assert (a["reps"], b["reps"]) == (4, 4)
    # A record holds the metrics its workload measured, no others.
    assert "x_s" in b["quartiles"] and "x_s" not in a["quartiles"]
    # Reported is the quartile on the better side: low for a time,
    # high for a rate.
    assert a["samples"]["wall_s"] == [3.0, 2.0, 1.0, 4.0]
    assert a["quartiles"]["wall_s"] == [1.25, 2.5, 3.75]
    assert a["reported"]["wall_s"] == 1.25
    assert a["reported"]["sim_instr_per_host_s"] == \
        a["quartiles"]["sim_instr_per_host_s"][2]


def traced_rep_source(walls, unattributed=0.0):
    """A ``try_rep`` whose reps take their ``wall_s`` from ``walls``,
    keyed by variant (``"traced"`` for the traced rep), in order."""
    def try_rep(workload, seed, deadline, reference=False, variant="",
                traced=False, trace_out=""):
        wall = walls["traced" if traced else variant].pop(0)
        if not traced:
            return fake_rep(wall)
        return fake_rep(wall, layers={
            "bench.self_time_closure_frac": 0.0,
            "bench.unattributed_frac": unattributed})
    return try_rep


def test_traced_ratios_are_ratios_of_medians(monkeypatch):
    names = [m["name"] for m in run.load_declaration()["per_layer"]]
    monkeypatch.setattr(run, "try_rep", traced_rep_source(
        {"": [2.0, 1.0, 4.0], "serial": [3.0, 9.0, 5.0],
         "traced": [2.5]}))
    record = run.traced_pass("sweep_pool_8t", 1, {}, names)
    assert record["failed"] == 0 and record["reps"] == 7
    metrics = record["metrics"]
    assert metrics["distrib.pool_speedup"] == 5.0 / 2.0
    assert metrics["bench.trace_overhead_frac"] == 2.5 / 2.0 - 1.0
    # Per-round ratios 1.5, 9, 1.25 behind the quartiles shown.
    assert record["ratio_quartiles"]["distrib.pool_speedup"][1] == 1.5
    assert set(metrics) == set(names)


def test_traced_pass_drops_rounds_that_would_not_fit(monkeypatch):
    names = [m["name"] for m in run.load_declaration()["per_layer"]]
    clock = iter(range(0, 10_000, 30))  # every look at the clock: +30 s
    monkeypatch.setattr(run.time, "monotonic", lambda: next(clock))
    monkeypatch.setattr(run, "try_rep", traced_rep_source(
        {"": [2.0, 1.0, 4.0], "serial": [3.0, 9.0, 5.0],
         "traced": [2.5]}))
    record = run.traced_pass("sweep_pool_8t", 1, {}, names)
    # Rounds start at 30 s and 60 s; a third would end past the budget.
    assert record["failed"] == 0 and record["reps"] == 5
    assert record["metrics"]["distrib.pool_speedup"] == 6.0 / 1.5


def test_unattributed_share_over_the_limit_fails_the_pass(monkeypatch):
    names = [m["name"] for m in run.load_declaration()["per_layer"]]
    monkeypatch.setattr(run, "try_rep", traced_rep_source(
        {"": [1.0] * 3, "traced": [1.0]},
        unattributed=run.UNATTRIBUTED_LIMIT + 0.01))
    record = run.traced_pass("inproc_hit_8t", 1, {}, names)
    assert record["failed"] == 1
    assert "inside no wrapped entry point" in record["failures"][0]


def test_declaration_matches_the_code():
    declaration = run.load_declaration()
    # The driver's gate holds a subset of the workloads, in their order.
    whys = {w.name: w.why for w in workloads.WORKLOADS}
    declared = [w["name"] for w in declaration["workloads"]]
    assert declared == [name for name in whys if name in declared]
    assert all(w["why"] == whys[w["name"]]
               for w in declaration["workloads"])
    # No metric is both declared and ungated, and a declared one that
    # only one workload measures has that workload in the gate.
    names = [m["name"] for m in run.end_to_end_metrics(declaration)]
    assert len(names) == len(set(names))
    assert "ckpt_library_8t" in declared and "serve_mix" not in declared
    per_layer = {m["name"] for m in declaration["per_layer"]}
    assert layers.EXACT_COUNTS <= per_layer
    assert {m for extras in run.EXTRAS.values() for m in extras} <= per_layer
    outcome = workloads.Outcome({})
    assert set(layers.layer_metrics({}, {}, {}, outcome, 1, 0)) <= per_layer
