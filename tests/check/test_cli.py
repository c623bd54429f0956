"""The ``repro check`` subcommand: exit codes and JSON output."""

import json
from pathlib import Path

from repro.cli import main

FIXTURES = Path(__file__).parent / "fixtures"


def test_fixture_path_exits_nonzero(capsys):
    code = main(["check", str(FIXTURES / "d002_random.py")])
    assert code == 1
    out = capsys.readouterr().out
    assert "D002" in out
    assert "3 finding(s)" in out


def test_clean_file_exits_zero(tmp_path, capsys):
    clean = tmp_path / "clean.py"
    clean.write_text("def f(cycles):\n    return cycles + 1\n")
    assert main(["check", str(clean)]) == 0
    assert "0 finding(s)" in capsys.readouterr().out


def test_explorer_only_run(capsys):
    code = main(["check", "--no-lint", "--tiles", "2", "--depth", "2"])
    assert code == 0
    out = capsys.readouterr().out
    assert "explored" in out
    assert "all invariants hold" in out


def test_json_output_is_machine_readable(capsys):
    code = main(["check", str(FIXTURES / "d001_wall_clock.py"),
                 "--json"])
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is False
    assert {f["rule"] for f in payload["lint"]} == {"D001"}


def test_json_includes_protocol_report(capsys):
    code = main(["check", "--no-lint", "--tiles", "2", "--depth", "2",
                 "--json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    protocol = payload["protocol"]
    assert protocol["violations"] == []
    assert protocol["explored_states"] > 0


def test_json_includes_membership_report(capsys):
    code = main(["check", "--no-lint", "--no-protocol",
                 "--membership-depth", "6", "--json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    membership = payload["membership"]
    assert membership["violations"] == []
    assert membership["depth"] == 6
    assert membership["unique_states"] > 0
    assert membership["crash_injections"] > 0
    assert "running" in membership["crash_phases"]


def test_membership_config_flags_are_honoured(capsys):
    code = main(["check", "--no-lint", "--no-protocol",
                 "--membership-workers", "1",
                 "--membership-max-workers", "2",
                 "--membership-shards", "1",
                 "--membership-jobs", "0",
                 "--membership-depth", "4", "--json"])
    assert code == 0
    membership = json.loads(capsys.readouterr().out)["membership"]
    assert (membership["workers"], membership["max_workers"],
            membership["shards"], membership["jobs"]) == (1, 2, 1, 0)


def test_no_membership_skips_the_explorer(capsys):
    code = main(["check", "--no-lint", "--no-membership",
                 "--tiles", "2", "--depth", "2", "--json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert "membership" not in payload


def test_github_format_emits_error_annotations(capsys):
    code = main(["check", str(FIXTURES / "d002_random.py"),
                 "--format", "github"])
    assert code == 1
    out = capsys.readouterr().out
    assert "::error file=" in out
    assert "line=8" in out
    assert "title=D002" in out
    # The human summary line still closes the section.
    assert "3 finding(s)" in out


def test_github_format_escapes_newlines(capsys):
    # Workflow-command payloads are single-line: the escaper is what
    # keeps multi-line messages from truncating the annotation.
    from repro.check.cli import _github_escape
    assert _github_escape("a%b\r\nc") == "a%25b%0D%0Ac"


def test_accept_wire_schema_reports_each_record(capsys):
    # The committed manifest is current, so accepting it again must
    # be a no-op; the one record it reports covers every wire module.
    from repro.check.lint import _SCHEMA_PATH
    committed = _SCHEMA_PATH.read_text()
    record = json.loads(committed)
    assert set(record) == {"wire_version", "fingerprint"}
    assert main(["check", "--accept-wire-schema"]) == 0
    out = capsys.readouterr().out
    assert f"v{record['wire_version']} {record['fingerprint']}" in out
    assert main(["check", "--accept-wire-schema", "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == record
    assert _SCHEMA_PATH.read_text() == committed
