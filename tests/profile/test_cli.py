"""CLI surfacing of host profiling: ``repro run --profile``."""

from __future__ import annotations

import json

from repro.cli import main

RUN = ["run", "--workload", "fmm", "--tiles", "4", "--scale", "0.1"]


def test_run_without_profile_prints_no_profile(capsys):
    assert main(RUN) == 0
    assert "host wall time" not in capsys.readouterr().out


def test_run_profile_flag_text_output(capsys):
    assert main(RUN + ["--profile"]) == 0
    out = capsys.readouterr().out
    assert "host wall time:" in out
    assert "subsystem self-times:" in out
    assert "achieved slowdown:" in out


def test_run_profile_flag_json_output(capsys):
    assert main(RUN + ["--profile", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    profile = payload["host_profile"]
    assert profile["schema"] == "repro.host_profile/1"
    assert profile["rates"]["cycles_per_host_second"] > 0
    # The simulation metrics in the payload stay profile-independent.
    assert payload["simulated_cycles"] == profile["rates"][
        "simulated_cycles"]


def test_profile_subcommand_text(capsys):
    # The former ``repro profile`` verb's text report, now ``run --profile``.
    assert main(RUN + ["--profile"]) == 0
    out = capsys.readouterr().out
    assert "host wall time:" in out
    assert "subsystem self-times:" in out


def test_profile_subcommand_json_and_report_file(capsys):
    # The former verb's JSON report rides in ``run --profile --json``.
    assert main(RUN + ["--profile", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["workload"] == "fmm"
    assert payload["host_profile"]["schema"] == "repro.host_profile/1"


def test_run_profile_chrome_trace(tmp_path, capsys):
    trace = tmp_path / "trace.json"
    assert main(RUN + ["--profile", "--trace-out", str(trace)]) == 0
    payload = json.loads(trace.read_text())
    from repro.telemetry.chrome import HOST_PID
    pids = {r.get("pid") for r in payload["traceEvents"]}
    assert HOST_PID in pids  # host tracks ...
    assert 0 in pids         # ... next to target-time tracks
