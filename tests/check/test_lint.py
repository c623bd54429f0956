"""The determinism lints: every rule fires on its fixture, none on the tree."""

import ast
from pathlib import Path

import pytest

from repro.check.lint import (
    check_wire_manifest,
    lint_file,
    lint_paths,
    lint_tree,
    package_root,
    scope_for,
    wire_fingerprint,
    wire_siblings,
)

FIXTURES = Path(__file__).parent / "fixtures"


class TestFixturesTrigger:
    @pytest.mark.parametrize("fixture,rule,count", [
        ("d001_wall_clock.py", "D001", 3),
        ("d002_random.py", "D002", 3),
        ("d003_set_iter.py", "D003", 3),
        ("d004_float_cycles.py", "D004", 3),
        ("w001_wire.py", "W001", 2),
    ])
    def test_rule_fires(self, fixture, rule, count):
        findings = lint_file(FIXTURES / fixture)
        assert [f.rule for f in findings] == [rule] * count

    def test_bare_allow_marker_is_a_finding(self):
        findings = lint_file(FIXTURES / "w002_bare_allow.py")
        rules = sorted(f.rule for f in findings)
        # The unjustified marker does NOT suppress, and is itself
        # reported.
        assert rules == ["D001", "W002"]

    def test_findings_carry_location(self):
        finding = lint_file(FIXTURES / "d002_random.py")[0]
        assert finding.line == 8
        assert "d002_random.py:8:" in finding.render()

    def test_bare_allow_on_multiline_statement_is_a_finding(self):
        # The marker sits on the statement's *last* line; without a
        # justification neither the D004 (anchored at the first line)
        # nor the marker itself gets a pass.
        findings = lint_file(FIXTURES / "w002_multiline_allow.py")
        assert sorted(f.rule for f in findings) == ["D004", "W002"]

    def test_stacked_bare_allow_suppresses_nothing(self):
        # ``allow D001,D002`` without a justification: both findings
        # stay, the bare marker is reported exactly once.
        findings = lint_file(FIXTURES / "w002_stacked_allow.py")
        assert sorted(f.rule for f in findings) == \
            ["D001", "D002", "W002"]


class TestSuppression:
    def test_justified_allow_suppresses(self, tmp_path):
        path = tmp_path / "mod.py"
        path.write_text(
            "import time\n"
            "t0 = time.time()  # check: allow D001 -- profiling\n")
        assert lint_file(path) == []

    def test_allow_covers_multiline_nodes(self, tmp_path):
        path = tmp_path / "mod.py"
        path.write_text(
            "def f(cycles):\n"
            "    return (\n"
            "        cycles / 2)  # check: allow D004 -- ratio\n")
        assert lint_file(path) == []

    def test_allow_only_suppresses_named_rule(self, tmp_path):
        path = tmp_path / "mod.py"
        path.write_text(
            "import time\n"
            "t0 = time.time()  # check: allow D002 -- wrong rule\n")
        assert [f.rule for f in lint_file(path)] == ["D001"]

    def test_stacked_justified_allow_suppresses_all_named(self, tmp_path):
        path = tmp_path / "mod.py"
        path.write_text(
            "import random\n"
            "import time\n"
            "t0 = (time.time(), random.random())"
            "  # check: allow D001,D002 -- boot entropy probe\n")
        assert lint_file(path) == []

    def test_stacked_allow_tolerates_unmatched_rule(self, tmp_path):
        # Naming a rule that does not fire on the line is harmless:
        # the matched rule is still suppressed.
        path = tmp_path / "mod.py"
        path.write_text(
            "import time\n"
            "t0 = time.time()"
            "  # check: allow D001,D003 -- migration scan\n")
        assert lint_file(path) == []

    def test_stacked_allow_covers_multiline_nodes(self, tmp_path):
        # Two different rules on one statement spanning three lines,
        # one stacked marker on the closing line: both violating
        # nodes' spans reach the marker, so both are suppressed.
        path = tmp_path / "mod.py"
        path.write_text(
            "import time\n"
            "def f(cycles):\n"
            "    return (cycles /\n"
            "            time.time(\n"
            "            ))  # check: allow D001,D004 -- wall ratio\n")
        assert lint_file(path) == []


class TestScoping:
    def test_model_dirs_get_wall_clock_rule(self):
        root = package_root()
        scope = scope_for(root / "memory" / "coherence.py", root)
        assert scope.wall_clock and scope.float_cycles

    def test_host_and_telemetry_are_exempt(self):
        root = package_root()
        for sub in ("host", "telemetry", "distrib"):
            scope = scope_for(root / sub / "anything.py", root)
            assert not scope.wall_clock
        # ...but distrib is still covered by the set-iteration rule.
        assert scope_for(root / "distrib" / "wire.py",
                         root).set_iteration

    def test_wire_carrying_dirs_get_set_iteration_rule(self):
        # net/ and serve/ both put data on wires; hash-order set
        # iteration there reorders frames across hosts, so D003
        # covers them like distrib/ (without the model-only rules).
        root = package_root()
        for sub in ("net", "serve"):
            scope = scope_for(root / sub / "anything.py", root)
            assert scope.set_iteration, sub
            assert not scope.wall_clock and not scope.float_cycles

    def test_d003_fires_under_net_scope(self, tmp_path):
        source = ("def fanout() -> list:\n"
                  "    return list({1, 2, 3})\n")
        for sub, rules in (("net", ["D003"]), ("host", [])):
            (tmp_path / sub).mkdir()
            path = tmp_path / sub / "mod.py"
            path.write_text(source)
            found = [f.rule for f in lint_file(path, root=tmp_path)]
            assert found == rules, (sub, found)

    def test_rng_module_may_construct_random(self):
        root = package_root()
        assert not scope_for(root / "common" / "rng.py",
                             root).randomness
        assert scope_for(root / "common" / "other.py", root).randomness

    def test_outside_tree_all_rules_apply(self, tmp_path):
        scope = scope_for(tmp_path / "f.py", package_root())
        assert scope.wall_clock and scope.randomness and \
            scope.set_iteration and scope.float_cycles

    def test_profile_package_may_read_wall_clocks(self):
        # Host profiling IS wall-clock measurement: the whole
        # src/repro/profile/ scope is D001-exempt, no inline markers.
        root = package_root()
        assert not scope_for(root / "profile" / "timers.py",
                             root).wall_clock

    def test_profile_exemption_is_scoped(self, tmp_path):
        # The exemption is the directory, not the call: identical
        # perf_counter code is clean under profile/ and still a D001
        # finding under a model directory.
        source = ("import time\n"
                  "t0 = time.perf_counter_ns()\n")
        for sub, rules in (("profile", []), ("memory", ["D001"])):
            (tmp_path / sub).mkdir()
            path = tmp_path / sub / "mod.py"
            path.write_text(source)
            found = [f.rule for f in lint_file(path, root=tmp_path)]
            assert found == rules, (sub, found)

    def test_obs_package_may_read_wall_clocks(self):
        # repro.obs is host-side observability: `repro top` refresh
        # loops and flight-recorder dump timestamps ARE wall-clock
        # reads, so the whole src/repro/obs/ scope is D001-exempt —
        # and stays exempt even if obs ever joins the model dirs.
        from repro.check.lint import D001_EXEMPT_DIRS
        assert "obs" in D001_EXEMPT_DIRS
        root = package_root()
        for module in ("top.py", "flight.py", "spans.py"):
            assert not scope_for(root / "obs" / module,
                                 root).wall_clock, module

    def test_obs_exemption_is_scoped(self, tmp_path):
        # Same discipline as profile/: the exemption covers the obs
        # directory, not wall-clock calls wherever they appear.
        source = ("import time\n"
                  "stamp = time.time()\n")
        for sub, rules in (("obs", []), ("sync", ["D001"])):
            (tmp_path / sub).mkdir()
            path = tmp_path / sub / "mod.py"
            path.write_text(source)
            found = [f.rule for f in lint_file(path, root=tmp_path)]
            assert found == rules, (sub, found)


class TestWireManifest:
    WIRE_SRC = (
        "from dataclasses import dataclass\n"
        "WIRE_VERSION = 3\n"
        "@dataclass\n"
        "class Frame:\n"
        "    kind: int\n"
        "    blob: bytes\n")

    def test_fingerprint_changes_with_fields(self):
        base, version = wire_fingerprint(ast.parse(self.WIRE_SRC))
        assert version == 3
        changed, _ = wire_fingerprint(ast.parse(
            self.WIRE_SRC + "    extra: str\n"))
        assert changed != base

    def test_field_change_without_bump_is_flagged(self, tmp_path):
        import json
        schema = tmp_path / "schema.json"
        fingerprint, _ = wire_fingerprint(ast.parse(self.WIRE_SRC))
        schema.write_text(json.dumps(
            {"wire_version": 3, "fingerprint": fingerprint}))
        # Unchanged: clean.
        assert check_wire_manifest(ast.parse(self.WIRE_SRC), "wire.py",
                                   schema) == []
        # Field added, version kept: W001.
        findings = check_wire_manifest(
            ast.parse(self.WIRE_SRC + "    extra: str\n"), "wire.py",
            schema)
        assert [f.rule for f in findings] == ["W001"]
        assert "bump WIRE_VERSION" in findings[0].message

    def test_version_bump_without_refresh_is_flagged(self, tmp_path):
        import json
        schema = tmp_path / "schema.json"
        fingerprint, _ = wire_fingerprint(ast.parse(self.WIRE_SRC))
        schema.write_text(json.dumps(
            {"wire_version": 2, "fingerprint": fingerprint}))
        findings = check_wire_manifest(ast.parse(self.WIRE_SRC),
                                       "wire.py", schema)
        assert [f.rule for f in findings] == ["W001"]


class TestRealTree:
    def test_repro_source_tree_is_clean(self):
        findings = lint_tree()
        assert findings == [], "\n".join(f.render() for f in findings)

    def test_recorded_schema_matches_real_wire_module(self):
        """The committed wire_schema.json must pin the wire as it is
        today — the refresh after a version bump is mandatory."""
        import json
        root = package_root()
        wire_path = root / "distrib" / "wire.py"
        fingerprint, version = wire_fingerprint(
            ast.parse(wire_path.read_text()), wire_siblings(wire_path))
        recorded = json.loads(
            (root / "check" / "wire_schema.json").read_text())
        assert recorded == {"wire_version": version,
                            "fingerprint": fingerprint}

    def test_real_wire_drift_still_fails(self, tmp_path):
        """Guard the guard: against a stale recorded schema, W001 must
        fire on the real wire module (a silent pass here would mean
        future frame/dataclass changes could ship unversioned)."""
        import json
        root = package_root()
        wire_path = root / "distrib" / "wire.py"
        tree = ast.parse(wire_path.read_text())
        _, version = wire_fingerprint(tree)
        stale = tmp_path / "schema.json"
        stale.write_text(json.dumps(
            {"wire_version": version, "fingerprint": "0" * 16}))
        findings = check_wire_manifest(tree, str(wire_path), stale)
        assert [f.rule for f in findings] == ["W001"]

    @staticmethod
    def _edited_wire(tmp_path, rel: str, old: str, new: str) -> list:
        """W001 findings on ``distrib/wire.py`` of a package copy in
        which ``rel`` had ``old`` replaced by ``new``."""
        import shutil
        root = tmp_path / "repro"
        for package in ("distrib", "serve", "net"):
            shutil.copytree(package_root() / package, root / package)
        edited = root / rel
        source = edited.read_text()
        assert source.count(old) == 1
        edited.write_text(source.replace(old, new))
        wire_path = root / "distrib" / "wire.py"
        return check_wire_manifest(ast.parse(wire_path.read_text()),
                                   str(wire_path))

    def test_serve_protocol_drift_still_fails(self, tmp_path):
        """The serve payload dataclasses are under the one record: a
        field change there without a bump flags the wire."""
        findings = self._edited_wire(
            tmp_path, "serve/protocol.py", '    trace_id: str = ""\n', "")
        assert [f.rule for f in findings] == ["W001"]
        assert "bump WIRE_VERSION" in findings[0].message

    def test_net_handshake_drift_still_fails(self, tmp_path):
        """Same guard for the net handshake frames."""
        findings = self._edited_wire(
            tmp_path, "net/handshake.py", '    trace: str = ""\n', "")
        assert [f.rule for f in findings] == ["W001"]
        assert "bump WIRE_VERSION" in findings[0].message

    def test_accept_wire_schema_records_both_modules(self, tmp_path):
        """One record, and it covers the serve and net modules: a
        field change in either moves the accepted fingerprint."""
        import json
        import shutil
        from repro.check.lint import accept_wire_schema
        record = accept_wire_schema(schema_path=tmp_path / "schema.json")
        assert json.loads((tmp_path / "schema.json").read_text()) == record
        assert set(record) == {"wire_version", "fingerprint"}
        for rel, field in (("serve/protocol.py", '    trace_id: str = ""\n'),
                           ("net/handshake.py", '    trace: str = ""\n')):
            root = tmp_path / rel.replace("/", "_") / "repro"
            for package in ("distrib", "serve", "net"):
                shutil.copytree(package_root() / package, root / package)
            edited = root / rel
            edited.write_text(edited.read_text().replace(field, ""))
            moved = accept_wire_schema(root=root,
                                       schema_path=tmp_path / "moved.json")
            assert moved["wire_version"] == record["wire_version"]
            assert moved["fingerprint"] != record["fingerprint"], rel

    def test_lint_paths_recurses_directories(self):
        findings = lint_paths([FIXTURES])
        assert {f.rule for f in findings} >= {"D001", "D002", "D003",
                                              "D004", "W001", "W002"}


class TestSchemaManifest:
    """W001 drift guards on the one wire, taken through
    ``check_wire_manifest`` as ``repro check`` takes them."""

    def test_shipped_manifest_is_current(self):
        """The checked-in wire_schema.json matches the live modules —
        i.e. the last frame or handshake change was accepted via
        ``repro check --accept-wire-schema``."""
        path = package_root() / "distrib" / "wire.py"
        assert check_wire_manifest(ast.parse(path.read_text()),
                                   str(path)) == []
        for rel in ("serve/protocol.py", "net/handshake.py"):
            assert lint_file(package_root() / rel) == [], rel

    def test_trace_field_is_fingerprinted(self):
        """Removing ``Welcome.trace`` must change the net fingerprint:
        the manifest covers a handshake dataclass field by field."""
        source = (package_root() / "net" / "handshake.py").read_text()
        fingerprint, _ = wire_fingerprint(ast.parse(source))
        stripped = source.replace('    trace: str = ""\n', "")
        assert stripped != source
        stripped_fp, _ = wire_fingerprint(ast.parse(stripped))
        assert stripped_fp != fingerprint

    def test_stale_manifest_flags_drift(self, tmp_path):
        import json
        path = package_root() / "distrib" / "wire.py"
        tree = ast.parse(path.read_text())
        _, version = wire_fingerprint(tree)
        stale = tmp_path / "schema.json"
        stale.write_text(json.dumps(
            {"wire_version": version, "fingerprint": "0" * 16}))
        findings = check_wire_manifest(tree, str(path), stale)
        assert [finding.rule for finding in findings] == ["W001"]

    def test_accept_then_check_clean(self, tmp_path):
        from repro.check.lint import accept_wire_schema
        schema = tmp_path / "schema.json"
        accept_wire_schema(schema_path=schema)
        path = package_root() / "distrib" / "wire.py"
        assert check_wire_manifest(ast.parse(path.read_text()), str(path),
                                   schema) == []
