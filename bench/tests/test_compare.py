"""compare.py's verdicts on hand-built envelopes."""

import compare


def q(median, iqr_share=0.0):
    half = median * iqr_share / 2
    return [median - half, median, median + half]


def test_within_bound_is_same():
    assert compare.verdict(q(1.0, .01), q(1.05, .01), "lower",
                           0.08)[0] == "same"


def test_lower_is_better_direction():
    assert compare.verdict(q(1.0), q(1.2), "lower", 0.08)[0] == "worse"
    assert compare.verdict(q(1.0), q(0.8), "lower", 0.08)[0] == "better"


def test_higher_is_better_direction():
    assert compare.verdict(q(100.0), q(80.0), "higher",
                           0.08)[0] == "worse"
    assert compare.verdict(q(100.0), q(120.0), "higher",
                           0.08)[0] == "better"


def test_wide_spread_is_unresolved_not_same():
    # Medians agree, but either side's own runs scatter past the bound.
    assert compare.verdict(q(1.0, .20), q(1.02, .01), "lower",
                           0.08)[0] == "unresolved"
    # A difference past the bound but inside the scatter is not a verdict.
    assert compare.verdict(q(1.0, .30), q(1.15, .30), "lower",
                           0.08)[0] == "unresolved"
    # A difference past both is.
    assert compare.verdict(q(1.0, .20), q(1.5, .20), "lower",
                           0.08)[0] == "worse"


def envelope(wall, failed=0, metrics=None, calib=0.1):
    record = {"attempted": 10, "failed": failed,
              "host_calib_s": [calib] * 3,
              "quartiles": {"wall_s": wall, "peak_rss_mb": wall},
              "metrics": metrics or {}}
    return {"pass": "untraced", "workloads": {"inproc_hit_8t": record}}


DECLARED = [{"name": "wall_s", "unit": "s", "better": "lower",
             "bound": 0.08},
            {"name": "ckpt_run_s", "unit": "s", "better": "lower",
             "bound": 0.08}]


def test_rows_cover_what_both_envelopes_measured():
    rows = compare.compare_untraced(envelope(q(1.0)), envelope(q(1.3)),
                                    DECLARED)
    # ckpt_run_s is declared, but this workload does not measure it.
    assert [(r[0], r[1], r[6]) for r in rows] == \
        [("inproc_hit_8t", "wall_s", "worse")]


def test_a_host_that_moved_leaves_times_unresolved():
    # The host's own calibration loop ran 40% slower under B: a wall_s
    # 30% up says nothing about the code, while memory still compares.
    a, b = envelope(q(1.0)), envelope(q(1.0), calib=0.14)
    assert abs(compare.host_drift(a["workloads"]["inproc_hit_8t"],
                                  b["workloads"]["inproc_hit_8t"])
               - 0.4) < 1e-9
    declared = DECLARED[:1] + [{"name": "peak_rss_mb", "unit": "MiB",
                                "better": "lower", "bound": 0.05}]
    rows = compare.compare_untraced(
        envelope(q(1.0)), envelope(q(1.3), calib=0.14), declared)
    assert [(r[1], r[6]) for r in rows] == \
        [("wall_s", "unresolved"), ("peak_rss_mb", "worse")]


def test_verdict_is_on_the_reported_quartile():
    a, b = [1.0, 1.05, 1.1], [1.2, 1.21, 1.22]
    # A time is reported as its lower quartile, a rate as its upper.
    assert compare.verdict(a, b, "lower", 0.08) == ("worse", 1.2 / 1.0)
    assert compare.verdict(a, b, "higher", 0.08) == ("better", 1.22 / 1.1)


def test_failed_share_rise_is_reported():
    assert compare.failed_share_rose(envelope(q(1.0)),
                                     envelope(q(1.0), failed=1))
    assert not compare.failed_share_rose(envelope(q(1.0), failed=1),
                                         envelope(q(1.0), failed=1))


def test_exact_counts_must_not_move():
    a = envelope(q(1.0), metrics={"host.turns": 10.0,
                                  "core.model_self_s": 1.0})
    b = envelope(q(1.0), metrics={"host.turns": 11.0,
                                  "core.model_self_s": 2.0})
    moved = compare.moved_counts(a, b)
    assert len(moved) == 1 and "host.turns" in moved[0]
    assert compare.moved_counts(a, a) == []
