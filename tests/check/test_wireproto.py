"""The wire-protocol spec and its P-rule conformance lints.

Three layers of guarantees:

- the committed ``wire_proto.json`` is internally valid and every
  tampered variant is rejected loudly (a typo must never become a
  silently never-matching rule);
- the real source tree is in lockstep with the spec: every role's
  statically-extracted send set equals the spec's, and every frame the
  peer can send has a handling site;
- the P001/P002/P003 rules themselves fire on synthetic modules that
  violate the spec, and honour the ``# check: allow`` machinery.
"""

import ast
import copy
import json

import pytest

from repro.check.lint import _Suppressions, package_root
from repro.check.wireproto import (
    WireProtoError,
    extract_role,
    extract_sites,
    lint_wireproto,
    load_spec,
    receivable,
    spec_modules,
    validate_spec,
)

ROLES = ("coordinator", "worker", "serve_daemon", "serve_remote",
         "serve_client", "serve_api", "net_dialer", "net_listener")


def _lint(source, rel, spec):
    tree = ast.parse(source)
    suppressions = _Suppressions(source, rel)
    findings = lint_wireproto(tree, rel, rel, suppressions, spec)
    return findings + suppressions.findings


# -- spec validity ------------------------------------------------------------


class TestSpecValidation:
    def test_committed_spec_loads(self):
        spec = load_spec()
        assert spec["format"] == "repro.wire_proto/1"
        assert set(spec["roles"]) == set(ROLES)

    def test_load_is_cached_by_mtime(self):
        assert load_spec() is load_spec()

    def test_spec_covers_all_wire_modules(self):
        assert spec_modules(load_spec()) == {
            "distrib/coordinator.py", "distrib/worker.py",
            "serve/fleet.py", "serve/client.py", "serve/daemon.py",
            "net/handshake.py"}

    @pytest.mark.parametrize("mutate,needle", [
        (lambda s: s.update(format="repro.wire_proto/9"),
         "unknown spec format"),
        (lambda s: s["roles"]["worker"].pop("sends"),
         "missing 'sends'"),
        (lambda s: s["roles"]["coordinator"].update(peer="nobody"),
         "unknown peer"),
        (lambda s: s["roles"]["worker"].update(peer="worker"),
         "disagree about peering"),
        (lambda s: s["roles"]["worker"]["sends"].append("BOGUS"),
         "unknown FrameKind"),
        (lambda s: s["pairs"][0].update(request="GOODBYE_KISS"),
         "not in"),
        (lambda s: s["pairs"][0]["replies"].append("HELLO"),
         "responder's send set"),
        (lambda s: s["phases"]["worker"].update(initial="limbo"),
         "is not defined"),
        (lambda s: s["phases"]["worker"]["transitions"]["idle"]
         .update({"send HELLO": "idle"}), "outside its send set"),
        (lambda s: s["phases"]["worker"]["transitions"]["idle"]
         .update({"recv KERNEL_CALL": "idle"}),
         "its peer cannot send"),
        (lambda s: s["phases"]["worker"]["transitions"]["idle"]
         .update({"yell ERROR": "idle"}), "bad event"),
        (lambda s: s["phases"]["worker"]["transitions"]["idle"]
         .update({"recv RESTORE": "limbo"}), "undefined state"),
    ])
    def test_tampered_spec_is_rejected(self, mutate, needle):
        spec = copy.deepcopy(load_spec())
        mutate(spec)
        with pytest.raises(WireProtoError, match=needle):
            validate_spec(spec)

    def test_malformed_json_is_rejected(self, tmp_path):
        bad = tmp_path / "wire_proto.json"
        bad.write_text("{not json")
        with pytest.raises(WireProtoError, match="not valid JSON"):
            load_spec(bad)

    def test_tampered_file_is_rejected(self, tmp_path):
        spec = copy.deepcopy(load_spec())
        del spec["roles"]["worker"]
        bad = tmp_path / "wire_proto.json"
        bad.write_text(json.dumps(spec))
        with pytest.raises(WireProtoError):
            load_spec(bad)


class TestPhaseMachines:
    """The phase machines exercise the whole frame vocabulary."""

    @pytest.mark.parametrize("role", ROLES)
    def test_machine_uses_every_send_and_recv_frame(self, role):
        spec = load_spec()
        machine = spec["phases"][role]
        sent, received = set(), set()
        for edges in machine["transitions"].values():
            for event in edges:
                direction, _, frame = event.partition(" ")
                (sent if direction == "send" else received).add(frame)
        assert sent == set(spec["roles"][role]["sends"])
        assert received == receivable(spec, role)

    @pytest.mark.parametrize("role", ROLES)
    def test_terminal_states_have_no_outgoing_edges(self, role):
        machine = load_spec()["phases"][role]
        for terminal in machine["terminal"]:
            assert terminal not in machine["transitions"]


# -- lockstep with the real tree ----------------------------------------------


class TestRealTreeLockstep:
    @pytest.mark.parametrize("role", ROLES)
    def test_send_sites_match_spec_exactly(self, role):
        spec = load_spec()
        sites = extract_role(role, spec=spec)
        assert sites.sent_frames() == set(spec["roles"][role]["sends"])

    @pytest.mark.parametrize("role", ROLES)
    def test_every_receivable_frame_is_handled(self, role):
        spec = load_spec()
        sites = extract_role(role, spec=spec)
        assert receivable(spec, role) <= sites.handled_frames()

    def test_sites_carry_locations(self):
        sites = extract_role("worker")
        assert sites.sends and sites.handles
        assert all(site.line >= 1 and site.col >= 1
                   for site in sites.sends + sites.handles)


# -- the P rules on synthetic modules -----------------------------------------


SYNTH_SPEC = {
    "format": "repro.wire_proto/1",
    "roles": {
        "client": {"module": "x/client.py", "peer": "server",
                   "frames": "verbs", "sends": ["ping"]},
        "server": {"module": "x/server.py", "peer": "client",
                   "frames": "verbs", "sends": ["pong"]},
    },
    "pairs": [
        {"requester": "client", "request": "ping",
         "replies": ["pong"]},
    ],
}


class TestPRules:
    def test_synthetic_spec_is_valid(self):
        validate_spec(SYNTH_SPEC)

    def test_clean_role_has_no_findings(self):
        source = ("def run(ch):\n"
                  "    ch.send((\"ping\", 1))\n"
                  "    msg = ch.recv()\n"
                  "    if msg[0] == \"pong\":\n"
                  "        return msg\n")
        assert _lint(source, "x/client.py", SYNTH_SPEC) == []

    def test_p001_unknown_send(self):
        source = ("def run(ch):\n"
                  "    ch.send((\"ping\", 1))\n"
                  "    ch.send((\"rogue\",))\n"
                  "    msg = ch.recv()\n"
                  "    if msg[0] == \"pong\":\n"
                  "        return msg\n")
        findings = _lint(source, "x/client.py", SYNTH_SPEC)
        assert [f.rule for f in findings] == ["P001"]
        assert findings[0].line == 3
        assert "`rogue`" in findings[0].message

    def test_p002_unhandled_receivable(self):
        source = ("def run(ch):\n"
                  "    ch.send((\"ping\", 1))\n")
        findings = _lint(source, "x/client.py", SYNTH_SPEC)
        assert [f.rule for f in findings] == ["P002"]
        assert "`pong`" in findings[0].message

    def test_p003_request_without_reply_site(self):
        source = ("def serve(ch):\n"
                  "    msg = ch.recv()\n"
                  "    if msg[0] == \"ping\":\n"
                  "        return msg\n")
        findings = _lint(source, "x/server.py", SYNTH_SPEC)
        assert [f.rule for f in findings] == ["P003"]
        assert findings[0].line == 3
        assert "block forever" in findings[0].message

    def test_unhandled_request_is_p002_not_p003(self):
        # A server that ignores the request entirely gets exactly one
        # finding: P002 already says it all, P003 would be noise.
        source = ("def serve(ch):\n"
                  "    ch.send((\"pong\", 2))\n")
        findings = _lint(source, "x/server.py", SYNTH_SPEC)
        assert [f.rule for f in findings] == ["P002"]

    def test_justified_allow_suppresses_p001(self):
        source = ("def run(ch):\n"
                  "    ch.send((\"ping\", 1))\n"
                  "    ch.send((\"rogue\",))"
                  "  # check: allow P001 -- legacy probe\n"
                  "    msg = ch.recv()\n"
                  "    if msg[0] == \"pong\":\n"
                  "        return msg\n")
        assert _lint(source, "x/client.py", SYNTH_SPEC) == []

    def test_bare_allow_does_not_suppress_p001(self):
        source = ("def run(ch):\n"
                  "    ch.send((\"ping\", 1))\n"
                  "    ch.send((\"rogue\",))  # check: allow P001\n"
                  "    msg = ch.recv()\n"
                  "    if msg[0] == \"pong\":\n"
                  "        return msg\n")
        rules = sorted(f.rule for f in
                       _lint(source, "x/client.py", SYNTH_SPEC))
        assert rules == ["P001", "W002"]

    def test_scopes_restrict_extraction(self):
        # Only functions the spec names for the role are inspected:
        # the other role's half of a shared module stays invisible.
        spec = copy.deepcopy(SYNTH_SPEC)
        spec["roles"]["client"]["scopes"] = ["run"]
        source = ("def run(ch):\n"
                  "    ch.send((\"ping\", 1))\n"
                  "    msg = ch.recv()\n"
                  "    if msg[0] == \"pong\":\n"
                  "        return msg\n"
                  "def other_half(ch):\n"
                  "    ch.send((\"rogue\",))\n")
        sites = extract_sites(ast.parse(source), spec, "client")
        assert sites.sent_frames() == {"ping"}


class TestEnumModeIntegration:
    def test_lint_file_flags_wrong_side_send(self, tmp_path):
        # A module living at the coordinator's spec path but sending a
        # worker frame: P001 through the ordinary lint_file pipeline.
        from repro.check.lint import lint_file
        module = tmp_path / "distrib" / "coordinator.py"
        module.parent.mkdir()
        module.write_text(
            "def drive(ch):\n"
            "    ch.send(FrameKind.KERNEL_CALL)\n")
        findings = lint_file(module, root=tmp_path)
        p001 = [f for f in findings if f.rule == "P001"]
        assert len(p001) == 1
        assert "`KERNEL_CALL`" in p001[0].message
        assert p001[0].line == 2
        # ...and the peer's whole send set is reported unhandled.
        spec = load_spec()
        p002 = [f for f in findings if f.rule == "P002"]
        assert len(p002) == len(receivable(spec, "coordinator"))

    def test_real_modules_are_clean_via_lint_file(self):
        from repro.check.lint import lint_file
        root = package_root()
        for rel in sorted(spec_modules(load_spec())):
            findings = lint_file(root / rel)
            assert findings == [], \
                "\n".join(f.render() for f in findings)
