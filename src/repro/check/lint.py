"""Determinism lints the generic linters cannot express (rules D/W).

The simulator's credibility rests on determinism: identical seeds must
give identical metrics on every backend, host and ``PYTHONHASHSEED``.
These rules encode the repo-specific ways that property gets broken:

``D001``
    No wall-clock reads (``time.time``/``perf_counter``/``monotonic``/
    ``datetime.now`` ...) in *model* code — ``core/``, ``memory/``,
    ``network/``, ``sync/``, ``sim/``.  Host-side code (``host/``,
    ``telemetry/``, ``distrib/``) legitimately reads real time for
    timeouts and trace wall-stamps and is outside the rule's scope.
    The host profiler (``profile/``) is the *sanctioned* wall-clock
    reader: the whole sub-package is exempted by scope
    (:data:`D001_EXEMPT_DIRS`) rather than per-line allow markers, so
    its timers never accumulate suppression comments — while model
    code stays rejected.

``D002``
    No direct ``random.Random(...)`` construction and no module-level
    ``random.*`` calls anywhere except ``common/rng.py``: all
    randomness must come from the named, seeded streams of
    :class:`repro.common.rng.RngStreams`, or one consumer's draws
    perturb another's sequence and sweep repeats silently share state.

``D003``
    No iteration over ``set`` values in model or distrib code.  Set
    order depends on ``PYTHONHASHSEED`` and insertion history; iterating
    one can leak hash order into timestamps, RNG draw order or wire
    frames.  Use a ``dict`` keyed by the members (an ordered set) or
    ``sorted(...)``.

``D004``
    No float arithmetic or float equality on cycle counts.  Cycles are
    integers; mixing in float literals or true division silently turns
    timestamps into floats whose rounding differs across platforms.

``W001``
    Wire safety for the one wire (:data:`WIRE_MODULES`): every
    dataclass carries only allowlisted picklable field types, and any
    change to the schema requires a ``WIRE_VERSION`` bump (tracked via
    one fingerprint record, refreshed with ``repro check
    --accept-wire-schema``).  The schema includes what dataclasses
    cannot show: the kernel methods the coordinator serves (names,
    arities) and the payload shape of every frame a send site builds
    (:data:`WIRE_DISPATCH_MODULES`).

``P001``–``P003``
    Wire-*protocol* conformance (who may send what, what must be
    handled, which requests must have a reply site), checked against
    the declarative spec in ``check/wire_proto.json``.  The rules
    live in :mod:`repro.check.wireproto` and run automatically for
    the modules the spec names.

A finding can be suppressed with an inline comment on the offending
line::

    t0 = time.perf_counter()  # check: allow D001 -- host-side profiling

The justification after ``--`` is mandatory; a bare allow marker is
itself reported (rule ``W002``).
"""

from __future__ import annotations

import ast
import hashlib
import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple

#: Sub-packages whose code models the target and must be wall-clock and
#: float-cycle clean (D001/D004) and set-iteration clean (D003).
#: ``sample`` is in scope because mode switches and window boundaries
#: are decided in target cycles — a wall clock or a float there would
#: break byte-identical forking.
MODEL_DIRS = ("core", "memory", "network", "sync", "sim", "sample")

#: Sub-packages sanctioned to read wall clocks (D001): host profiling
#: *is* wall-clock measurement, so ``src/repro/profile/`` is exempt as
#: a scope — no per-line suppression markers needed there.  The
#: observability layer (``src/repro/obs/`` — ``repro top`` refresh
#: loops, flight-recorder dump timestamps) is host-side by definition
#: and exempt for the same reason; model code stays rejected.
D001_EXEMPT_DIRS = ("profile", "obs")

#: D003 additionally covers the wire/distribution layers: hash order
#: leaking into frames breaks cross-process byte-identity, and the
#: serve daemon's scheduling decisions must not depend on it either.
#: ``net/`` carries both wires (TCP channels, handshake, listener
#: accept order), so it is in scope too.
SET_ITER_DIRS = MODEL_DIRS + ("distrib", "serve", "net")

#: Modules whose dataclasses are wire schema, all under the one
#: ``WIRE_VERSION`` the first defines (its manifest check covers all).
WIRE_MODULES = ("distrib/wire.py", "serve/protocol.py", "net/handshake.py")

#: Modules whose dispatch shape is wire schema: the coordinator's
#: handler tables, and the payload shape of every frame a send site
#: builds — ``FrameKind`` tuples on the mp wire (RUN_QUANTUM,
#: KERNEL_CALL, KERNEL_REPLY, ...), ``(verb, payload)`` tuples on the
#: fleet and serve channels.
WIRE_DISPATCH_MODULES = ("distrib/coordinator.py", "distrib/worker.py",
                         "serve/fleet.py", "serve/client.py",
                         "serve/daemon.py")
_HANDLER_TABLES = ("_rpc_handlers", "_cast_handlers")

#: The one module allowed to construct random.Random.
RNG_MODULE = "common/rng.py"

#: Wall-clock reading callables, by dotted name (D001).
WALL_CLOCK_CALLS = {
    "time.time", "time.time_ns",
    "time.perf_counter", "time.perf_counter_ns",
    "time.monotonic", "time.monotonic_ns",
    "time.process_time", "time.process_time_ns",
    "time.clock_gettime", "time.clock_gettime_ns",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
    "datetime.now", "datetime.utcnow", "datetime.today",
    "date.today",
}

#: Type names a wire dataclass field may be built from (W001).
WIRE_SAFE_TYPES = {
    "str", "int", "float", "bool", "bytes", "None",
    "Any", "Optional", "Dict", "dict", "List", "list",
    "Tuple", "tuple", "Mapping", "Sequence",
}

#: ``... # check: allow D001 -- why`` suppression marker.
_ALLOW_RE = re.compile(
    r"#\s*check:\s*allow\s+(?P<rules>[A-Z]\d{3}(?:\s*,\s*[A-Z]\d{3})*)"
    r"(?P<just>\s*--\s*\S.*)?")

#: Identifier fragments marking a value as a cycle count (D004).
_CYCLEISH_RE = re.compile(r"cycle|clock|timestamp|epoch", re.IGNORECASE)
#: ...unless the name says it lives in another unit domain
#: (``*_per_cycle`` is a rate, not a cycle count).
_NOT_CYCLEISH_RE = re.compile(
    r"seconds|_hz|hz$|rate|freq|skew|per_cycle", re.IGNORECASE)


@dataclass(frozen=True)
class LintFinding:
    """One rule violation at one source location."""

    rule: str
    path: str
    line: int
    col: int
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"


@dataclass(frozen=True)
class RuleScope:
    """Which rules apply to one file."""

    wall_clock: bool      # D001
    randomness: bool      # D002
    set_iteration: bool   # D003
    float_cycles: bool    # D004
    wire_safety: bool     # W001
    #: The real wire module additionally checks the version manifest.
    wire_manifest: bool = False


def scope_for(path: Path, package_root: Optional[Path]) -> RuleScope:
    """Resolve the rule set for ``path``.

    Inside the package tree, scope follows the sub-package; outside it
    (lint fixtures, ad-hoc files) every rule applies so a fixture can
    exercise its rule without replicating the tree layout.  Wire safety
    outside the tree applies only to modules that declare a
    ``WIRE_VERSION`` (checked later against the parsed module).
    """
    if package_root is not None:
        try:
            rel = path.resolve().relative_to(package_root.resolve())
        except ValueError:
            rel = None
        if rel is not None:
            top = rel.parts[0] if len(rel.parts) > 1 else ""
            as_posix = rel.as_posix()
            return RuleScope(
                wall_clock=(top in MODEL_DIRS
                            and top not in D001_EXEMPT_DIRS),
                randomness=as_posix != RNG_MODULE,
                set_iteration=top in SET_ITER_DIRS,
                float_cycles=top in MODEL_DIRS,
                wire_safety=as_posix in WIRE_MODULES,
                wire_manifest=as_posix == WIRE_MODULES[0],
            )
    return RuleScope(wall_clock=True, randomness=True, set_iteration=True,
                     float_cycles=True, wire_safety=True)


# -- suppression -------------------------------------------------------------


class _Suppressions:
    """Per-line ``check: allow`` markers, with mandatory justification."""

    def __init__(self, source: str, path: str) -> None:
        self.allowed: Dict[int, Set[str]] = {}
        self.findings: List[LintFinding] = []
        for lineno, text in enumerate(source.splitlines(), start=1):
            match = _ALLOW_RE.search(text)
            if match is None:
                continue
            rules = {r.strip() for r in match.group("rules").split(",")}
            if not match.group("just"):
                self.findings.append(LintFinding(
                    "W002", path, lineno, match.start() + 1,
                    "allowlist entry without a justification "
                    "(write `# check: allow RULE -- why`)"))
                continue
            self.allowed.setdefault(lineno, set()).update(rules)

    def active(self, rule: str, first_line: int, last_line: int) -> bool:
        return any(rule in self.allowed.get(line, ())
                   for line in range(first_line, last_line + 1))


# -- the per-module visitor --------------------------------------------------


class _ModuleLinter(ast.NodeVisitor):
    def __init__(self, path: str, scope: RuleScope,
                 suppressions: _Suppressions) -> None:
        self.path = path
        self.scope = scope
        self.suppressions = suppressions
        self.findings: List[LintFinding] = []
        #: local alias -> canonical module ("t" -> "time").
        self._module_aliases: Dict[str, str] = {}
        #: local name -> canonical dotted callable ("pc" ->
        #: "time.perf_counter", "Random" -> "random.Random").
        self._from_imports: Dict[str, str] = {}
        #: Names/attrs known to hold a set value ("waiters",
        #: "self._waiting").
        self._set_symbols: Set[str] = set()
        self.defines_wire_version = False

    # -- helpers -------------------------------------------------------------

    def _report(self, rule: str, node: ast.AST, message: str) -> None:
        line = getattr(node, "lineno", 1)
        last = getattr(node, "end_lineno", None) or line
        if self.suppressions.active(rule, line, last):
            return
        self.findings.append(LintFinding(
            rule, self.path, line, getattr(node, "col_offset", 0) + 1,
            message))

    def _dotted(self, node: ast.AST) -> Optional[str]:
        """Resolve a call target into a canonical dotted name."""
        if isinstance(node, ast.Name):
            if node.id in self._from_imports:
                return self._from_imports[node.id]
            return node.id
        if isinstance(node, ast.Attribute):
            base = self._dotted(node.value)
            if base is None:
                return None
            base = self._module_aliases.get(base, base)
            return f"{base}.{node.attr}"
        return None

    def _symbol(self, node: ast.AST) -> Optional[str]:
        """A trackable symbol: bare name or ``self.attr``."""
        if isinstance(node, ast.Name):
            return node.id
        if isinstance(node, ast.Attribute) and \
                isinstance(node.value, ast.Name) and \
                node.value.id == "self":
            return f"self.{node.attr}"
        return None

    # -- imports -------------------------------------------------------------

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self._module_aliases[alias.asname or alias.name] = alias.name
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module:
            for alias in node.names:
                self._from_imports[alias.asname or alias.name] = \
                    f"{node.module}.{alias.name}"
        self.generic_visit(node)

    # -- D001 / D002: calls --------------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        dotted = self._dotted(node.func)
        if dotted is not None:
            if self.scope.wall_clock and dotted in WALL_CLOCK_CALLS:
                self._report(
                    "D001", node,
                    f"wall-clock read `{dotted}()` in model code; model "
                    "time must come from simulated clocks only")
            if self.scope.randomness and (
                    dotted.startswith("random.")):
                self._report(
                    "D002", node,
                    f"direct `{dotted}()` call; draw from a named "
                    "stream of repro.common.rng.RngStreams instead")
        if self.scope.set_iteration and \
                isinstance(node.func, ast.Name) and \
                node.func.id in ("list", "tuple", "iter", "enumerate") \
                and node.args and self._is_set_expr(node.args[0]):
            self._report(
                "D003", node,
                f"`{node.func.id}()` over a set bakes hash order into "
                "a sequence; use sorted(...) or an ordered dict-set")
        self.generic_visit(node)

    # -- D003: set tracking and iteration ------------------------------------

    def _is_set_expr(self, node: ast.AST) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            callee = self._dotted(node.func)
            if callee in ("set", "frozenset"):
                return True
            # set-returning combinators on known sets: s.union(...) etc.
            if isinstance(node.func, ast.Attribute) and \
                    node.func.attr in ("union", "intersection",
                                       "difference",
                                       "symmetric_difference") and \
                    self._is_set_expr(node.func.value):
                return True
        if isinstance(node, ast.BinOp) and \
                isinstance(node.op, (ast.BitOr, ast.BitAnd, ast.Sub,
                                     ast.BitXor)) and \
                (self._is_set_expr(node.left)
                 or self._is_set_expr(node.right)):
            return True
        symbol = self._symbol(node)
        return symbol is not None and symbol in self._set_symbols

    def _note_binding(self, target: ast.AST, value: ast.AST) -> None:
        symbol = self._symbol(target)
        if symbol is None:
            return
        if self._is_set_expr(value):
            self._set_symbols.add(symbol)
        else:
            self._set_symbols.discard(symbol)

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            if isinstance(target, ast.Tuple) and \
                    isinstance(node.value, ast.Tuple) and \
                    len(target.elts) == len(node.value.elts):
                # a, b = x, set() — propagate element-wise (the swap
                # idiom used to drain a set each epoch).
                for t, v in zip(target.elts, node.value.elts):
                    self._note_binding(t, v)
            else:
                self._note_binding(target, node.value)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        symbol = self._symbol(node.target)
        if symbol is not None:
            annotation = ast.dump(node.annotation)
            if re.search(r"'(Set|FrozenSet|set|frozenset)'", annotation):
                self._set_symbols.add(symbol)
            elif node.value is not None:
                self._note_binding(node.target, node.value)
        self.generic_visit(node)

    def _check_iteration(self, iterable: ast.AST, node: ast.AST) -> None:
        if self.scope.set_iteration and self._is_set_expr(iterable):
            self._report(
                "D003", node,
                "iteration over a set; order depends on PYTHONHASHSEED "
                "and can leak into timestamps, RNG draws and wire "
                "frames — use a dict-as-ordered-set or sorted(...)")

    def visit_For(self, node: ast.For) -> None:
        self._check_iteration(node.iter, node)
        self.generic_visit(node)

    def _visit_comprehension(self, node) -> None:
        for gen in node.generators:
            self._check_iteration(gen.iter, node)
        self.generic_visit(node)

    visit_ListComp = _visit_comprehension
    visit_SetComp = _visit_comprehension
    visit_DictComp = _visit_comprehension
    visit_GeneratorExp = _visit_comprehension

    # -- D004: float arithmetic on cycles ------------------------------------

    def _is_cycleish(self, node: ast.AST) -> bool:
        if isinstance(node, ast.BinOp):
            return self._is_cycleish(node.left) or \
                self._is_cycleish(node.right)
        name = None
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        if name is None:
            return False
        return bool(_CYCLEISH_RE.search(name)) and \
            not _NOT_CYCLEISH_RE.search(name)

    @staticmethod
    def _is_float_literal(node: ast.AST) -> bool:
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            return True
        return isinstance(node, ast.UnaryOp) and \
            isinstance(node.operand, ast.Constant) and \
            isinstance(node.operand.value, float)

    def visit_BinOp(self, node: ast.BinOp) -> None:
        if self.scope.float_cycles:
            cycleish = self._is_cycleish(node.left) or \
                self._is_cycleish(node.right)
            if cycleish and isinstance(node.op, ast.Div):
                self._report(
                    "D004", node,
                    "true division on a cycle count produces a float; "
                    "use // (or convert to an explicit seconds domain)")
            elif cycleish and (self._is_float_literal(node.left)
                               or self._is_float_literal(node.right)):
                self._report(
                    "D004", node,
                    "float literal in cycle arithmetic; cycle counts "
                    "must stay integral")
        self.generic_visit(node)

    def visit_Compare(self, node: ast.Compare) -> None:
        if self.scope.float_cycles:
            operands = [node.left] + list(node.comparators)
            has_cycle = any(self._is_cycleish(o) for o in operands)
            has_float = any(self._is_float_literal(o) for o in operands)
            if has_cycle and has_float and any(
                    isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
                self._report(
                    "D004", node,
                    "float equality against a cycle count; compare "
                    "integers")
        self.generic_visit(node)

    # -- W001: wire dataclass fields -----------------------------------------

    def visit_Module(self, node: ast.Module) -> None:
        for stmt in node.body:
            targets = []
            if isinstance(stmt, ast.Assign):
                targets = stmt.targets
            elif isinstance(stmt, ast.AnnAssign):
                targets = [stmt.target]
            for target in targets:
                if isinstance(target, ast.Name) and \
                        target.id == "WIRE_VERSION":
                    self.defines_wire_version = True
        self.generic_visit(node)

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        if self.scope.wire_safety and _is_dataclass(node):
            for stmt in node.body:
                if not isinstance(stmt, ast.AnnAssign):
                    continue
                bad = _unsafe_annotation_names(stmt.annotation)
                if bad:
                    self._report(
                        "W001", stmt,
                        f"wire dataclass `{node.name}` field uses "
                        f"non-allowlisted type(s) {sorted(bad)}; wire "
                        "frames may carry only plain picklable data "
                        f"(allowed: {sorted(WIRE_SAFE_TYPES - {'None'})})")
        self.generic_visit(node)


def _is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) \
            else decorator
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
        if isinstance(target, ast.Attribute) and \
                target.attr == "dataclass":
            return True
    return False


def _unsafe_annotation_names(annotation: ast.AST) -> Set[str]:
    """Identifiers in an annotation that are not wire-safe."""
    bad: Set[str] = set()
    for sub in ast.walk(annotation):
        if isinstance(sub, ast.Name) and sub.id not in WIRE_SAFE_TYPES:
            bad.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            if sub.attr not in WIRE_SAFE_TYPES:
                bad.add(sub.attr)
        elif isinstance(sub, ast.Constant) and \
                isinstance(sub.value, str) and \
                sub.value not in WIRE_SAFE_TYPES:
            # Forward references ("Waiters") hide custom classes.
            bad.add(sub.value)
    return bad


# -- the wire schema manifest ------------------------------------------------

_SCHEMA_PATH = Path(__file__).with_name("wire_schema.json")


def wire_siblings(path) -> List[ast.Module]:
    """The parsed wire and dispatch modules of the package whose
    ``distrib/wire.py`` is ``path`` (those that exist)."""
    root = Path(path).parent.parent
    beside = [root / rel for rel in WIRE_MODULES[1:] + WIRE_DISPATCH_MODULES]
    return [ast.parse(p.read_text()) for p in beside if p.exists()]


def _shape(node: ast.AST) -> str:
    """A payload expression's shape: tuple arity and nesting, dict
    keys; any other expression is one opaque value."""
    if isinstance(node, ast.Starred):
        return "*"
    if isinstance(node, ast.Tuple):
        return "(" + "".join(_shape(e) for e in node.elts) + ")"
    if isinstance(node, ast.Dict):
        return "{" + ",".join(str(k.value) if isinstance(k, ast.Constant)
                              else "*" for k in node.keys) + "}"
    return "."


def dispatch_rows(tree: ast.Module) -> List[Tuple[str, str, str]]:
    """A dispatch module's share of the wire schema: each ``(handler
    table, method, positional arity)``, each ``(frame, "send", payload
    shape)`` of a ``FrameKind`` send site with a tuple payload, and each
    ``(verb, "send", shape)`` of a ``(verb, ...)`` frame tuple passed
    to a call."""
    arity = {node.name: len(node.args.args) - 1
             for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    rows = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.AnnAssign) and \
                getattr(node.target, "attr", None) in _HANDLER_TABLES:
            table = node.target.attr
            for key, handler in zip(node.value.keys, node.value.values):
                rows.add((table, key.value, str(
                    len(handler.args.args)
                    if isinstance(handler, ast.Lambda)
                    else arity.get(getattr(handler, "attr", None)))))
        elif isinstance(node, ast.Call):
            for kind, payload in zip(node.args, node.args[1:]):
                if isinstance(payload, ast.Tuple) and getattr(getattr(
                        kind, "value", None), "id", None) == "FrameKind":
                    rows.add((kind.attr, "send", _shape(payload)))
            for frame in node.args:
                if isinstance(frame, ast.Tuple) and frame.elts and \
                        isinstance(frame.elts[0], ast.Constant) and \
                        isinstance(frame.elts[0].value, str):
                    rows.add((frame.elts[0].value, "send",
                              "".join(_shape(e) for e in frame.elts[1:])))
    return sorted(rows)


def wire_fingerprint(tree: ast.Module, siblings: Sequence[ast.Module] = ()
                     ) -> Tuple[str, Optional[int]]:
    """Schema fingerprint of the wire: dataclass fields + types of
    ``tree`` and ``siblings``, plus the :func:`dispatch_rows` of the
    siblings.

    Returns ``(fingerprint, wire_version)``; the fingerprint hashes the
    ordered rows so *any* field change — add, remove, rename, retype —
    or payload reshape changes it.
    """
    rows: List[Tuple[str, str, str]] = []
    version: Optional[int] = None
    for module in [tree, *siblings]:
        for node in module.body:
            if isinstance(node, ast.Assign) and module is tree:
                for target in node.targets:
                    if isinstance(target, ast.Name) and \
                            target.id == "WIRE_VERSION" and \
                            isinstance(node.value, ast.Constant):
                        version = int(node.value.value)
            if isinstance(node, ast.ClassDef) and _is_dataclass(node):
                for stmt in node.body:
                    if isinstance(stmt, ast.AnnAssign) and \
                            isinstance(stmt.target, ast.Name):
                        rows.append((node.name, stmt.target.id,
                                     ast.dump(stmt.annotation)))
    for sibling in siblings:
        rows.extend(dispatch_rows(sibling))
    digest = hashlib.sha256(repr(rows).encode("utf-8")).hexdigest()[:16]
    return digest, version


def check_wire_manifest(tree: ast.Module, path: str,
                        schema_path: Path = _SCHEMA_PATH
                        ) -> List[LintFinding]:
    """W001 manifest check: schema changes require a version bump."""
    fingerprint, version = wire_fingerprint(tree, wire_siblings(path))
    if not schema_path.exists():
        return [LintFinding(
            "W001", path, 1, 1,
            "no wire schema manifest recorded; run "
            "`python -m repro check --accept-wire-schema`")]
    recorded = json.loads(schema_path.read_text())
    findings: List[LintFinding] = []
    if recorded.get("fingerprint") != fingerprint:
        findings.append(LintFinding(
            "W001", path, 1, 1,
            "wire dataclass fields, kernel dispatch or frame payload "
            "shapes changed since the recorded schema; bump "
            "WIRE_VERSION and run `python -m repro check "
            "--accept-wire-schema`"))
    elif recorded.get("wire_version") != version:
        findings.append(LintFinding(
            "W001", path, 1, 1,
            f"WIRE_VERSION is {version} but the recorded schema says "
            f"{recorded.get('wire_version')}; fields and version must "
            "change together"))
    return findings


def accept_wire_schema(root: Optional[Path] = None,
                       schema_path: Path = _SCHEMA_PATH) -> dict:
    """Record the wire's schema fingerprint (after a version bump)."""
    root = package_root() if root is None else root
    module = root / WIRE_MODULES[0]
    fingerprint, version = wire_fingerprint(
        ast.parse(module.read_text(), filename=str(module)),
        wire_siblings(module))
    record = {"wire_version": version, "fingerprint": fingerprint}
    # Atomic replace: a crash mid-write must never leave a truncated
    # manifest that would flag the wire.
    tmp = schema_path.with_name(schema_path.name + ".tmp")
    tmp.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    tmp.replace(schema_path)
    return record


# -- entry points ------------------------------------------------------------


def package_root() -> Path:
    """Root of the installed ``repro`` package (the linted tree)."""
    return Path(__file__).resolve().parent.parent


def lint_file(path: Path,
              root: Optional[Path] = None) -> List[LintFinding]:
    """Lint one file; ``root`` defaults to the repro package root."""
    root = package_root() if root is None else root
    scope = scope_for(path, root)
    source = path.read_text()
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        return [LintFinding("E999", str(path), exc.lineno or 1,
                            (exc.offset or 0) + 1,
                            f"syntax error: {exc.msg}")]
    suppressions = _Suppressions(source, str(path))
    # Outside the package tree, wire safety applies only to modules
    # that actually declare a wire format.
    probe = _ModuleLinter(str(path), scope, suppressions)
    probe.visit(tree)
    findings = list(probe.findings)
    if not scope.wire_manifest and scope.wire_safety and \
            not probe.defines_wire_version:
        findings = [f for f in findings if f.rule != "W001"]
    try:
        rel = path.resolve().relative_to(root.resolve()).as_posix()
    except ValueError:
        rel = None
    if scope.wire_manifest and rel is not None:
        findings.extend(check_wire_manifest(tree, str(path)))
    if rel is not None:
        # Protocol conformance (P001-P003) for the modules the wire
        # spec names.  Imported lazily: wireproto imports back from
        # this module.
        from repro.check import wireproto
        spec = wireproto.load_spec()
        if rel in wireproto.spec_modules(spec):
            findings.extend(wireproto.lint_wireproto(
                tree, str(path), rel, suppressions, spec))
    findings.extend(suppressions.findings)
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings


def lint_paths(paths: Sequence[Path],
               root: Optional[Path] = None) -> List[LintFinding]:
    """Lint files and directory trees; directories recurse over ``*.py``."""
    findings: List[LintFinding] = []
    for path in paths:
        path = Path(path)
        if path.is_dir():
            for child in sorted(path.rglob("*.py")):
                findings.extend(lint_file(child, root))
        else:
            findings.extend(lint_file(path, root))
    return findings


def lint_tree(root: Optional[Path] = None) -> List[LintFinding]:
    """Lint the whole repro package source tree."""
    root = package_root() if root is None else root
    return lint_paths([root], root)
