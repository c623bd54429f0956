"""Wire-protocol conformance lints (rules P001–P003).

``check/wire_proto.json`` is the declarative companion to the W001
field-schema manifest: where W001 pins *what* a frame carries, the
protocol spec pins *who may say what, when*.  It names every protocol
role (coordinator/worker over the pickle wire, the serve daemon and
its fleet workers over the verb tuples, both ends of the net
handshake), which frames each role may send, how requests pair with
replies, and the per-role phase machine legal orderings must follow.

This module statically extracts every send and every receive-handling
site from the role modules and checks them against the spec:

``P001``
    A role sends a frame the spec does not allow it to send.  Either
    the code grew a new frame (update ``wire_proto.json`` — that is
    the reviewable act) or the frame is being sent from the wrong
    side of the wire.

``P002``
    A frame the role's peer may send, but the role never handles: a
    silent drop (or a crash) waiting for the first time the peer says
    it.

``P003``
    The role handles a request frame but has no send site for any of
    its legal replies: the requester would block forever.

Extraction is deliberately syntactic (no imports are executed): frame
references are ``FrameKind.X`` attributes for the pickle wire,
lowercase verb tuples ``("job", ...)`` for the serve slot protocol,
and frame-dataclass constructors for the net handshake.  Sites are
scoped to the classes/functions the spec names for each role, so the
two roles sharing ``serve/fleet.py`` are checked independently.

Findings ride the same reporting and ``# check: allow P001 -- why``
suppression machinery as every other lint rule.

The per-role phase machines are not needed for the P rules themselves
— they document the protocol and drive the membership model checker
(:mod:`repro.check.membership`), which replays them against every
fault interleaving.
"""

from __future__ import annotations

import ast
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple

from repro.check.lint import (
    LintFinding,
    _is_dataclass,
    _Suppressions,
    package_root,
)

#: The committed protocol spec, next to the W001 schema manifest.
SPEC_PATH = Path(__file__).with_name("wire_proto.json")

#: Callable names that put a frame on a wire.  Matching is by the
#: final attribute/name, so ``self.send``, ``cluster.send`` and plain
#: ``_send`` all count.
SEND_FUNCS = {
    "send", "_send", "send_bytes", "encode_frame",
    "_send_handshake", "send_frame", "encode_handshake", "request",
}

#: Callables whose last argument (``expect``) names the one frame they
#: accept from the peer — ``WorkerCluster.request(worker, kind,
#: payload, expect)`` and ``reply(worker, expect)``.  That argument is
#: a handle site, not a send.
EXPECT_FUNCS = {"request", "reply"}


class WireProtoError(ValueError):
    """The spec file is malformed or contradicts the code's enums."""


@dataclass(frozen=True)
class Site:
    """One send or handle site: a frame name at a source location."""

    frame: str
    line: int
    col: int


@dataclass
class RoleSites:
    """Everything one role statically says and listens for."""

    role: str
    path: str
    sends: List[Site]
    handles: List[Site]

    def sent_frames(self) -> Set[str]:
        return {site.frame for site in self.sends}

    def handled_frames(self) -> Set[str]:
        return {site.frame for site in self.handles}


# -- spec loading ------------------------------------------------------------

_SPEC_CACHE: Dict[Path, Tuple[int, dict]] = {}


def receivable(spec: dict, role: str) -> Set[str]:
    """Frames a role can legally be sent (its peer's send set)."""
    peer = spec["roles"][role]["peer"]
    return set(spec["roles"][peer]["sends"])


def load_spec(path: Path = SPEC_PATH) -> dict:
    """Load and validate the protocol spec (cached by mtime)."""
    path = Path(path)
    mtime = path.stat().st_mtime_ns
    cached = _SPEC_CACHE.get(path)
    if cached is not None and cached[0] == mtime:
        return cached[1]
    try:
        spec = json.loads(path.read_text())
    except ValueError as exc:
        raise WireProtoError(f"{path}: not valid JSON: {exc}") from exc
    validate_spec(spec)
    _SPEC_CACHE[path] = (mtime, spec)
    return spec


def validate_spec(spec: dict) -> None:
    """Reject specs that drifted from the code's frame vocabulary.

    A typo in ``wire_proto.json`` must be an error, never a silently
    never-matching rule.
    """
    if spec.get("format") != "repro.wire_proto/1":
        raise WireProtoError(
            f"unknown spec format {spec.get('format')!r}")
    roles = spec.get("roles")
    if not isinstance(roles, dict) or not roles:
        raise WireProtoError("spec has no roles")
    from repro.distrib.wire import FrameKind
    enum_frames = set(FrameKind.__members__)
    for name, role in roles.items():
        for key in ("module", "peer", "sends"):
            if key not in role:
                raise WireProtoError(f"role {name!r} missing {key!r}")
        peer = role["peer"]
        if peer not in roles:
            raise WireProtoError(
                f"role {name!r} names unknown peer {peer!r}")
        if roles[peer]["peer"] != name:
            raise WireProtoError(
                f"roles {name!r} and {peer!r} disagree about peering")
        if role.get("frames", "enum") == "enum":
            unknown = set(role["sends"]) - enum_frames
            if unknown:
                raise WireProtoError(
                    f"role {name!r} sends unknown FrameKind member(s) "
                    f"{sorted(unknown)}")
    for pair in spec.get("pairs", ()):
        requester = pair.get("requester")
        if requester not in roles:
            raise WireProtoError(
                f"pair {pair!r} names unknown requester")
        if pair.get("request") not in roles[requester]["sends"]:
            raise WireProtoError(
                f"pair request {pair.get('request')!r} is not in "
                f"{requester!r}'s send set")
        responder_sends = set(
            roles[roles[requester]["peer"]]["sends"])
        bad = set(pair.get("replies", ())) - responder_sends
        if bad:
            raise WireProtoError(
                f"pair {pair.get('request')!r} replies {sorted(bad)} "
                f"are not in the responder's send set")
    for name, machine in spec.get("phases", {}).items():
        if name not in roles:
            raise WireProtoError(
                f"phase machine for unknown role {name!r}")
        transitions = machine.get("transitions", {})
        states = set(transitions) | set(machine.get("terminal", ()))
        if machine.get("initial") not in states:
            raise WireProtoError(
                f"role {name!r}: initial state "
                f"{machine.get('initial')!r} is not defined")
        sendable = set(roles[name]["sends"])
        recvable = receivable(spec, name)
        for state, edges in transitions.items():
            for event, target in edges.items():
                direction, _, frame = event.partition(" ")
                if direction == "send" and frame not in sendable:
                    raise WireProtoError(
                        f"role {name!r} phase {state!r}: sends "
                        f"{frame!r} outside its send set")
                if direction == "recv" and frame not in recvable:
                    raise WireProtoError(
                        f"role {name!r} phase {state!r}: receives "
                        f"{frame!r} its peer cannot send")
                if direction not in ("send", "recv"):
                    raise WireProtoError(
                        f"role {name!r} phase {state!r}: bad event "
                        f"{event!r} (want 'send F' or 'recv F')")
                if target not in states:
                    raise WireProtoError(
                        f"role {name!r} phase {state!r}: transition "
                        f"to undefined state {target!r}")


# -- site extraction ---------------------------------------------------------


def _callee_name(func: ast.AST) -> Optional[str]:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


class _SiteCollector(ast.NodeVisitor):
    """Collect send/handle sites for one role's frame style.

    ``mode`` is how the role spells a frame on the wire:

    - ``"enum"``: ``FrameKind.X`` attributes inside a send call;
      handled via ``kind is/== FrameKind.X`` comparisons or as the
      ``expect`` argument of an :data:`EXPECT_FUNCS` call.
    - ``"verbs"``: tuple literals whose first element is a string
      constant (the serve slot protocol builds these outside the send
      call, so every such literal in scope counts); handled via string
      comparisons.
    - ``"classes"``: constructors of the module's frame dataclasses
      inside a send call; handled via ``isinstance`` checks.
    """

    def __init__(self, mode: str, frame_classes: Set[str]) -> None:
        self.mode = mode
        self.frame_classes = frame_classes
        self.sends: List[Site] = []
        self.handles: List[Site] = []
        self._seen_sends: Set[Tuple[int, str]] = set()
        self._seen_handles: Set[Tuple[int, str]] = set()

    def _add(self, bucket: str, frame: str, node: ast.AST) -> None:
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0) + 1
        seen = self._seen_sends if bucket == "sends" \
            else self._seen_handles
        if (line, frame) in seen:
            return
        seen.add((line, frame))
        getattr(self, bucket).append(Site(frame, line, col))

    # -- sends ---------------------------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        callee = _callee_name(node.func)
        sent = node.args + [kw.value for kw in node.keywords]
        if callee in EXPECT_FUNCS and sent:
            self._collect_frames("handles", sent.pop())
        if callee in SEND_FUNCS:
            for arg in sent:
                self._collect_frames("sends", arg)
        if callee == "isinstance" and self.mode == "classes" and \
                len(node.args) == 2:
            classinfo = node.args[1]
            names = classinfo.elts if isinstance(classinfo, ast.Tuple) \
                else [classinfo]
            for name in names:
                ident = _callee_name(name) or (
                    name.id if isinstance(name, ast.Name) else None)
                if ident in self.frame_classes:
                    self._add("handles", ident, node)
        self.generic_visit(node)

    def _collect_frames(self, bucket: str, node: ast.AST) -> None:
        for sub in ast.walk(node):
            if self.mode == "enum" and isinstance(sub, ast.Attribute) \
                    and isinstance(sub.value, ast.Name) \
                    and sub.value.id == "FrameKind":
                self._add(bucket, sub.attr, sub)
            elif self.mode == "classes" and isinstance(sub, ast.Call):
                ident = _callee_name(sub.func)
                if ident in self.frame_classes:
                    self._add(bucket, ident, sub)

    def visit_Tuple(self, node: ast.Tuple) -> None:
        if self.mode == "verbs" and node.elts and \
                isinstance(node.elts[0], ast.Constant) and \
                isinstance(node.elts[0].value, str) and \
                not isinstance(node.ctx, ast.Store):
            self._add("sends", node.elts[0].value, node)
        self.generic_visit(node)

    # -- handles -------------------------------------------------------------

    def visit_Compare(self, node: ast.Compare) -> None:
        if any(isinstance(op, (ast.Eq, ast.NotEq, ast.Is, ast.IsNot))
               for op in node.ops):
            for operand in [node.left] + list(node.comparators):
                if self.mode == "enum" and \
                        isinstance(operand, ast.Attribute) and \
                        isinstance(operand.value, ast.Name) and \
                        operand.value.id == "FrameKind":
                    self._add("handles", operand.attr, node)
                elif self.mode == "verbs" and \
                        isinstance(operand, ast.Constant) and \
                        isinstance(operand.value, str):
                    self._add("handles", operand.value, node)
        self.generic_visit(node)


def _scope_nodes(tree: ast.Module,
                 scopes: Optional[List[str]]) -> List[ast.AST]:
    """The subtrees a role's extraction is restricted to."""
    if not scopes:
        return [tree]
    wanted = set(scopes)
    return [node for node in tree.body
            if isinstance(node, (ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef))
            and node.name in wanted]


def _module_dataclasses(tree: ast.Module) -> Set[str]:
    return {node.name for node in tree.body
            if isinstance(node, ast.ClassDef) and _is_dataclass(node)}


def extract_sites(tree: ast.Module, spec: dict, role: str,
                  path: str = "<module>") -> RoleSites:
    """All send/handle sites of ``role`` in its parsed module."""
    entry = spec["roles"][role]
    mode = entry.get("frames", "enum")
    collector = _SiteCollector(mode, _module_dataclasses(tree))
    for node in _scope_nodes(tree, entry.get("scopes")):
        collector.visit(node)
    collector.sends.sort(key=lambda s: (s.line, s.col, s.frame))
    collector.handles.sort(key=lambda s: (s.line, s.col, s.frame))
    return RoleSites(role, path, collector.sends, collector.handles)


# -- the P rules -------------------------------------------------------------


def spec_modules(spec: dict) -> Set[str]:
    """Repo-relative modules (under ``src/repro/``) the spec covers."""
    return {role["module"] for role in spec["roles"].values()}


def lint_wireproto(tree: ast.Module, path: str, rel: str,
                   suppressions: _Suppressions,
                   spec: Optional[dict] = None) -> List[LintFinding]:
    """Run P001–P003 for every spec role living in ``rel``."""
    spec = load_spec() if spec is None else spec
    findings: List[LintFinding] = []

    def report(rule: str, line: int, col: int, message: str) -> None:
        if not suppressions.active(rule, line, line):
            findings.append(LintFinding(rule, path, line, col, message))

    for name in sorted(spec["roles"]):
        role = spec["roles"][name]
        if role["module"] != rel:
            continue
        sites = extract_sites(tree, spec, name, path)
        allowed = set(role["sends"])
        for site in sites.sends:
            if site.frame not in allowed:
                report(
                    "P001", site.line, site.col,
                    f"role `{name}` sends frame `{site.frame}` the "
                    "protocol spec does not allow; update "
                    "check/wire_proto.json if the protocol grew, or "
                    "move the send to the right role")
        handled = sites.handled_frames()
        for frame in sorted(receivable(spec, name) - handled):
            report(
                "P002", 1, 1,
                f"role `{name}` can receive frame `{frame}` from its "
                f"peer `{role['peer']}` but never handles it; an "
                "unhandled frame is a silent drop or a crash")
        for pair in spec.get("pairs", ()):
            responder = spec["roles"][pair["requester"]]["peer"]
            if responder != name:
                continue
            request = pair["request"]
            handle_sites = [s for s in sites.handles
                            if s.frame == request]
            if not handle_sites:
                continue  # already a P002 finding above
            if not set(pair["replies"]) & sites.sent_frames():
                anchor = handle_sites[0]
                report(
                    "P003", anchor.line, anchor.col,
                    f"role `{name}` handles request `{request}` but "
                    f"has no send site for any legal reply "
                    f"{pair['replies']}; the requester would block "
                    "forever")
    return findings


def extract_role(role: str, root: Optional[Path] = None,
                 spec: Optional[dict] = None) -> RoleSites:
    """Convenience: parse a role's real module and extract its sites."""
    spec = load_spec() if spec is None else spec
    root = package_root() if root is None else root
    module = root / spec["roles"][role]["module"]
    tree = ast.parse(module.read_text(), filename=str(module))
    return extract_sites(tree, spec, role, str(module))
