"""HostProfile report assembly: gauges, worker merge, rendering."""

from __future__ import annotations

from repro.profile.report import (
    PROFILE_SCHEMA,
    build_profile,
    render_profile,
    summarize_worker,
    top_subsystems,
)
from repro.profile.timers import HostProfiler


class FakeResult:
    simulated_cycles = 1_000_000
    total_instructions = 800_000
    native_seconds = 0.001
    slowdown = 150.0


def _profiler(run_ns: int = 2_000_000_000) -> HostProfiler:
    prof = HostProfiler()
    prof._run_start_ns = 0
    prof._run_stop_ns = run_ns
    prof.absorb({
        "core.model": {"calls": 10, "cum_ns": 600_000_000,
                       "self_ns": 600_000_000},
        "memory.controller": {"calls": 20, "cum_ns": 900_000_000,
                              "self_ns": 900_000_000}})
    return prof


def test_build_profile_rates_and_partition():
    profile = build_profile(_profiler(), FakeResult(), "inproc")
    assert profile["schema"] == PROFILE_SCHEMA
    assert profile["backend"] == "inproc"
    assert profile["host_wall_seconds"] == 2.0
    assert profile["instrumented_seconds"] == 1.5
    assert profile["untracked_seconds"] == 0.5
    rates = profile["rates"]
    assert rates["cycles_per_host_second"] == 500_000.0
    assert rates["instructions_per_host_second"] == 400_000.0
    assert rates["modeled_slowdown"] == 150.0
    # Achieved slowdown is measured host time over modeled native time.
    assert rates["achieved_slowdown"] == 2.0 / 0.001
    assert "workers" not in profile


def test_top_subsystems_ranked_by_self_time():
    profile = build_profile(_profiler(), FakeResult(), "inproc",
                            top_n=1)
    assert [r["name"] for r in profile["top_subsystems"]] \
        == ["memory.controller"]
    full = top_subsystems(profile["subsystems"], 10)
    assert [r["name"] for r in full] \
        == ["memory.controller", "core.model"]


def test_zero_wall_time_yields_zero_rates():
    prof = HostProfiler()  # bracket never opened
    profile = build_profile(prof, FakeResult(), "inproc")
    assert profile["rates"]["cycles_per_host_second"] == 0.0
    assert profile["rates"]["achieved_slowdown"] == 0.0


def test_summarize_worker_busy_idle_serialize_split():
    scopes = {
        "idle.wait": {"calls": 5, "cum_ns": 3_000_000_000,
                      "self_ns": 3_000_000_000},
        "quantum.run": {"calls": 5, "cum_ns": 800_000_000,
                        "self_ns": 800_000_000},
        "wire.encode": {"calls": 9, "cum_ns": 200_000_000,
                        "self_ns": 200_000_000},
    }
    summary = summarize_worker(scopes)
    assert summary["idle_seconds"] == 3.0
    assert summary["busy_seconds"] == 1.0  # quantum + serialization
    assert summary["serialize_seconds"] == 0.2
    assert summary["utilization"] == 0.25
    assert set(summary["scopes"]) == set(scopes)


def test_worker_sections_and_skew():
    worker_scopes = {
        0: {"quantum.run": {"calls": 1, "cum_ns": 400_000_000,
                            "self_ns": 400_000_000}},
        1: {"quantum.run": {"calls": 1, "cum_ns": 100_000_000,
                            "self_ns": 100_000_000}},
    }
    profile = build_profile(_profiler(), FakeResult(), "mp",
                            worker_scopes=worker_scopes)
    assert set(profile["workers"]) == {"0", "1"}
    skew = profile["worker_skew"]
    assert skew["max_busy_seconds"] == 0.4
    assert skew["min_busy_seconds"] == 0.1
    assert skew["skew_ratio"] == 4.0


def test_render_profile_mentions_the_load_bearing_numbers():
    worker_scopes = {0: {"idle.wait": {"calls": 1, "cum_ns": 10,
                                       "self_ns": 10}}}
    text = render_profile(build_profile(
        _profiler(), FakeResult(), "mp", worker_scopes=worker_scopes))
    assert "host wall time:" in text
    assert "cycles/s" in text
    assert "memory.controller" in text
    assert "(untracked)" in text
    assert "worker 0:" in text
