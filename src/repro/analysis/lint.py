"""Repo-specific AST lint rules (the ``repro lint`` driver).

Rules follow the repo's registry idiom (``DELTA_STRATEGIES``,
``STEPPERS``): one table (:data:`RULES`), one driver (:func:`run_lint`)
whose ``--select`` validation enumerates every member.  Each rule is a
pure function over parsed source — no imports of the linted modules —
except ``registry-spec``, which deliberately *imports* the registries to
cross-check them against the spec mini-language, the CLI help, the
auto-tuner portfolio, and the test suite.

The rule catalog:

``hot-loop-alloc``
    No ``np.zeros/empty/full/arange/concatenate``, no list/dict/set
    comprehensions, and no ``+``-concatenation of list/str values inside
    a function or block marked ``# repro: hot``.  Markers are trailing
    or preceding comments on the statement they cover; a line-level
    ``# repro: alloc-ok`` comment suppresses (for documented fallback
    paths), and :class:`~repro.kernels.workspace.RelaxWorkspace` methods
    plus module-level ``_EMPTY_*`` constants are whitelisted — the arena
    is *where* allocations are supposed to live.  The known hot files
    (``kernels/``, ``sssp/fused.py``, ``shard/stepper.py``) must each
    carry at least one marker, so the contract cannot rot away by
    deleting comments.

``recorder-guard``
    Every ``.span(`` / ``.observe(`` / ``.inc(`` / ``.instant(`` /
    ``.set_gauge(`` call on an optional recorder (a receiver named
    ``recorder``/``rec``/``metrics`` or a ``_``-prefixed form, including
    ``self.``-attributes) must sit behind a falsy guard: an enclosing
    ``if recorder:`` / ``if rec is not None:`` branch, a conditional
    expression, an ``and``-chain, or an earlier early-return
    (``if not recorder: return ...``).  This is what keeps the disabled
    telemetry path (``recorder=None``) at one branch per choke point; with
    no null recorder, an unguarded call would raise on that path.
    :mod:`repro.obs` itself is exempt — it *implements* the surface.

``registry-spec``
    Imports the live registries and cross-checks: every
    ``STEPPERS``/``KERNELS``/``PARTITIONERS`` key survives the stepper
    spec syntax (:func:`repro.stepping.base.parse_stepper_spec`) as a
    bare string; every auto-tuner default candidate and every
    spec-shaped string in the CLI help resolves against the registries
    (including its ``kernel=``/``partitioner=``/``transport=`` values);
    and every registry key is referenced by at least one test file.

``export-hygiene``
    ``__all__`` entries must be bound in their module, must not repeat,
    and every public name a package ``__init__`` imports from its own
    submodules (``from .mod import X``) must be listed in ``__all__``.
"""

from __future__ import annotations

import ast
import io
import json
import re
import tokenize
from dataclasses import dataclass
from pathlib import Path

__all__ = ["Finding", "RULES", "run_lint", "format_findings", "repo_paths"]


@dataclass(frozen=True)
class Finding:
    """One rule violation: where, which rule, and what went wrong."""

    rule: str
    path: str
    line: int
    message: str

    def as_dict(self) -> dict:
        return {"rule": self.rule, "path": self.path, "line": self.line,
                "message": self.message}

    def render(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


#: rule name -> one-line description; the discovery surface shared by
#: ``repro lint --select`` and the README rule catalog.
RULES = {
    "hot-loop-alloc": "no allocation expressions inside `# repro: hot` blocks",
    "recorder-guard": "optional-recorder telemetry calls must sit behind a falsy guard",
    "registry-spec": "registries, stepper specs, CLI help, tuner candidates, and tests agree",
    "export-hygiene": "__all__ matches the bound / re-exported public names",
}


def repo_paths() -> tuple[Path, Path, Path]:
    """``(repo root, src/repro, tests)`` resolved from this file's location."""
    pkg = Path(__file__).resolve().parent.parent  # src/repro
    root = pkg.parent.parent
    return root, pkg, root / "tests"


def _parent_map(tree: ast.AST) -> dict:
    parents: dict = {}
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            parents[child] = node
    return parents


def _comment_lines(source: str) -> tuple[set, set]:
    """``(hot marker lines, alloc-ok suppression lines)`` from comments."""
    hot, allow = set(), set()
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for tok in tokens:
            if tok.type != tokenize.COMMENT:
                continue
            m = re.match(r"#\s*repro:\s*(hot|alloc-ok)\b", tok.string)
            if m:
                (hot if m.group(1) == "hot" else allow).add(tok.start[0])
    except tokenize.TokenError:  # pragma: no cover - unparsable source
        pass
    return hot, allow


# -- hot-loop-alloc ----------------------------------------------------------

#: the numpy allocators banned in hot blocks (exactly the fresh-buffer
#: constructors; ``np.repeat``'s small expansion temporaries are the
#: documented remaining allocator traffic and stay legal)
_HOT_BANNED_NP = {"zeros", "empty", "full", "arange", "concatenate"}

#: files whose hot loops carry the zero-allocation contract; each must
#: contain at least one ``# repro: hot`` marker (directories: at least
#: one marker across the directory's modules)
HOT_FILES = ("kernels", "sssp/fused.py", "shard/stepper.py")


def _is_listy(node: ast.AST) -> bool:
    if isinstance(node, (ast.List, ast.ListComp)):
        return True
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return True
    return isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "list"


def _hot_targets(tree: ast.Module, hot_lines: set) -> list:
    """The statements each ``# repro: hot`` marker covers (same line, or
    the next statement below the marker)."""
    stmts = [n for n in ast.walk(tree) if isinstance(n, ast.stmt)]
    targets = []
    for line in sorted(hot_lines):
        covered = [s for s in stmts if s.lineno >= line]
        if covered:
            targets.append(min(covered, key=lambda s: s.lineno))
    return targets


def _check_hot_loop_alloc(path: Path, rel: str, tree: ast.Module, source: str,
                          findings: list) -> int:
    hot_lines, allow_lines = _comment_lines(source)
    for target in _hot_targets(tree, hot_lines):
        for node in ast.walk(target):
            line = getattr(node, "lineno", None)
            # a `# repro: alloc-ok` suppresses on its own line (trailing
            # comment) or on the line it directly precedes
            if line is None or line in allow_lines or (line - 1) in allow_lines:
                continue
            bad = None
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id in ("np", "numpy")
                    and node.func.attr in _HOT_BANNED_NP):
                bad = f"np.{node.func.attr}() allocates in a hot block"
            elif isinstance(node, (ast.ListComp, ast.DictComp, ast.SetComp)):
                kind = type(node).__name__.replace("Comp", "").lower()
                bad = f"{kind} comprehension allocates in a hot block"
            elif (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add)
                    and (_is_listy(node.left) or _is_listy(node.right))):
                bad = "`+`-concatenation allocates in a hot block"
            if bad is not None:
                findings.append(Finding(
                    "hot-loop-alloc", rel, line,
                    f"{bad} (hoist to a workspace / `_EMPTY_*` constant, "
                    "or annotate `# repro: alloc-ok` with a reason)",
                ))
    return len(hot_lines)


def _in_workspace_class(node: ast.AST, parents: dict) -> bool:
    while node in parents:
        node = parents[node]
        if isinstance(node, ast.ClassDef) and node.name == "RelaxWorkspace":
            return True
    return False


# -- recorder-guard ----------------------------------------------------------

_RECORDER_METHODS = {"span", "instant", "inc", "observe", "set_gauge"}
_RECORDER_NAME = re.compile(r"^_?(recorder|rec|metrics)$")


def _receiver_name(node: ast.expr) -> str | None:
    """The short name of a recorder-like receiver, or ``None``."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
        return node.attr  # self.recorder / self._metrics
    return None


def _same_expr(a: ast.expr, b: ast.expr) -> bool:
    return ast.dump(a) == ast.dump(b)


def _truthy_guards(test: ast.expr, receiver: ast.expr) -> bool:
    """True when *test* being truthy implies *receiver* is truthy."""
    if _same_expr(test, receiver):
        return True
    if (isinstance(test, ast.Compare) and len(test.ops) == 1
            and isinstance(test.ops[0], ast.IsNot)
            and _same_expr(test.left, receiver)
            and isinstance(test.comparators[0], ast.Constant)
            and test.comparators[0].value is None):
        return True
    if isinstance(test, ast.BoolOp) and isinstance(test.op, ast.And):
        return any(_truthy_guards(v, receiver) for v in test.values)
    return False


def _falsy_guards(test: ast.expr, receiver: ast.expr) -> bool:
    """True when *test* being FALSY implies *receiver* is truthy (so the
    else branch / the code after `if test: return` is safe)."""
    if isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not):
        return _same_expr(test.operand, receiver)
    if (isinstance(test, ast.Compare) and len(test.ops) == 1
            and isinstance(test.ops[0], ast.Is)
            and _same_expr(test.left, receiver)
            and isinstance(test.comparators[0], ast.Constant)
            and test.comparators[0].value is None):
        return True
    # `a is None or b is None` falsy implies every operand falsy, so one
    # matching operand guards the receiver
    if isinstance(test, ast.BoolOp) and isinstance(test.op, ast.Or):
        return any(_falsy_guards(v, receiver) for v in test.values)
    return False


def _terminates(body: list) -> bool:
    return bool(body) and isinstance(body[-1], (ast.Return, ast.Raise, ast.Continue, ast.Break))


def _is_guarded(call: ast.Call, receiver: ast.expr, parents: dict) -> bool:
    node: ast.AST = call
    while node in parents:
        parent = parents[node]
        if isinstance(parent, ast.If):
            if node in parent.body and _truthy_guards(parent.test, receiver):
                return True
            if node in parent.orelse and _falsy_guards(parent.test, receiver):
                return True
        elif isinstance(parent, ast.IfExp):
            if node is parent.body and _truthy_guards(parent.test, receiver):
                return True
            if node is parent.orelse and _falsy_guards(parent.test, receiver):
                return True
        elif isinstance(parent, ast.BoolOp) and isinstance(parent.op, ast.And):
            idx = parent.values.index(node) if node in parent.values else 0
            if any(_truthy_guards(v, receiver) for v in parent.values[:idx]):
                return True
        # an earlier `if not recorder: return ...` in any enclosing
        # statement sequence guards everything after it
        for field in ("body", "orelse", "finalbody"):
            seq = getattr(parent, field, None)
            if isinstance(seq, list) and node in seq:
                for prev in seq[:seq.index(node)]:
                    if (isinstance(prev, ast.If) and not prev.orelse
                            and _falsy_guards(prev.test, receiver)
                            and _terminates(prev.body)):
                        return True
        node = parent
    return False


def _check_recorder_guard(rel: str, tree: ast.Module, parents: dict,
                          findings: list) -> None:
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in _RECORDER_METHODS):
            continue
        receiver = node.func.value
        name = _receiver_name(receiver)
        if name is None or not _RECORDER_NAME.match(name):
            continue
        if not _is_guarded(node, receiver, parents):
            findings.append(Finding(
                "recorder-guard", rel, node.lineno,
                f"unguarded `{name}.{node.func.attr}(...)` — wrap in "
                f"`if {name}:` (or an early return) so the disabled "
                "telemetry path stays one falsy check",
            ))


# -- export-hygiene ----------------------------------------------------------

def _module_bindings(tree: ast.Module) -> set:
    bound = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, ast.Assign):
            for t in node.targets:
                for n in ast.walk(t):
                    if isinstance(n, ast.Name):
                        bound.add(n.id)
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            bound.add(node.target.id)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                bound.add(alias.asname or alias.name.split(".")[0])
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if alias.name != "*":
                    bound.add(alias.asname or alias.name)
    return bound


def _declared_all(tree: ast.Module) -> tuple[list, int] | None:
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else []
        if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
            if isinstance(node.value, (ast.List, ast.Tuple)):
                names = [e.value for e in node.value.elts
                         if isinstance(e, ast.Constant) and isinstance(e.value, str)]
                return names, node.lineno
    return None


def _check_export_hygiene(path: Path, rel: str, tree: ast.Module,
                          findings: list) -> None:
    declared = _declared_all(tree)
    if declared is None:
        if path.name == "__init__.py":
            findings.append(Finding(
                "export-hygiene", rel, 1,
                "package __init__ declares no __all__",
            ))
        return
    names, line = declared
    bound = _module_bindings(tree)
    # PEP 562: a module-level __getattr__ can serve any export lazily
    # (repro/__init__ loads subpackages this way), so binding can't be
    # checked statically there
    lazy = any(isinstance(n, ast.FunctionDef) and n.name == "__getattr__"
               for n in tree.body)
    seen = set()
    for name in names:
        if name in seen:
            findings.append(Finding(
                "export-hygiene", rel, line, f"__all__ lists {name!r} twice"))
        seen.add(name)
        if name not in bound and not lazy:
            findings.append(Finding(
                "export-hygiene", rel, line,
                f"__all__ exports {name!r} but the module never binds it"))
    if path.name != "__init__.py":
        return
    for node in tree.body:
        if not (isinstance(node, ast.ImportFrom) and node.level == 1 and node.module):
            continue
        for alias in node.names:
            exported = alias.asname or alias.name
            if exported.startswith("_") or alias.name == "*":
                continue
            if exported not in seen:
                findings.append(Finding(
                    "export-hygiene", rel, node.lineno,
                    f"{exported!r} is re-exported from .{node.module} "
                    "but missing from __all__",
                ))


# -- registry-spec (imports the live registries) -----------------------------

_SPEC_IN_TEXT = re.compile(r"['\"]([A-Za-z0-9_\-]+\([^'\"]*\))['\"]")


def _spec_param_findings(rel: str, line: int, spec: str, params: dict,
                         kernels: dict, partitioners: dict, transports: dict,
                         findings: list) -> None:
    checks = (
        ("kernel", set(kernels) | {"auto"}),
        ("partitioner", set(partitioners)),
    )
    for key, known in checks:
        val = params.get(key)
        if val is not None and val not in known:
            findings.append(Finding(
                "registry-spec", rel, line,
                f"spec {spec!r} names unregistered {key} {val!r} "
                f"(known: {', '.join(sorted(known))})",
            ))
    tr = params.get("transport")
    if tr is not None and str(tr).partition(":")[0] not in transports:
        findings.append(Finding(
            "registry-spec", rel, line,
            f"spec {spec!r} names unregistered transport {tr!r} "
            f"(known: {', '.join(transports)})",
        ))


def _check_registry_spec(root: Path, pkg: Path, tests: Path, findings: list) -> None:
    from ..kernels import KERNELS
    from ..shard.exchange import TRANSPORTS
    from ..shard.partition import PARTITIONERS
    from ..stepping import DEFAULT_CANDIDATES, STEPPERS
    from ..stepping.base import parse_stepper_spec, resolve_stepper_spec

    def rel(p: Path) -> str:
        try:
            return str(p.relative_to(root))
        except ValueError:  # pragma: no cover - out-of-tree invocation
            return str(p)

    # 1. every registry key must survive the spec mini-language
    reg_file = {"stepper": pkg / "stepping" / "base.py",
                "kernel": pkg / "kernels" / "minby.py",
                "partitioner": pkg / "shard" / "partition.py"}
    for label, table in (("stepper", STEPPERS), ("kernel", KERNELS),
                         ("partitioner", PARTITIONERS)):
        for key in table:
            try:
                if label == "stepper":
                    name, params = parse_stepper_spec(key)
                    ok = name == key and not params
                else:
                    _, params = parse_stepper_spec(f"delta({label}={key})")
                    ok = params.get(label) == key
            except ValueError:
                ok = False
            if not ok:
                findings.append(Finding(
                    "registry-spec", rel(reg_file[label]), 1,
                    f"{label} registry key {key!r} is not expressible in "
                    "stepper-spec syntax (parse_stepper_spec would mangle it)",
                ))

    # 2. the auto-tuner's default portfolio resolves, knob values included
    tune_rel = rel(pkg / "stepping" / "autotune.py")
    for spec in DEFAULT_CANDIDATES:
        try:
            _, params = resolve_stepper_spec(spec)
        except ValueError as exc:
            findings.append(Finding(
                "registry-spec", tune_rel, 1,
                f"DEFAULT_CANDIDATES spec {spec!r} does not resolve: {exc}"))
            continue
        _spec_param_findings(tune_rel, 1, spec, params,
                             KERNELS, PARTITIONERS, TRANSPORTS, findings)

    # 3. spec-shaped strings in the CLI source (help text, defaults)
    cli_path = pkg / "cli.py"
    cli_rel = rel(cli_path)
    cli_src = cli_path.read_text()
    for i, text in enumerate(cli_src.splitlines(), start=1):
        for spec in _SPEC_IN_TEXT.findall(text):
            try:
                _, params = resolve_stepper_spec(spec)
            except ValueError as exc:
                findings.append(Finding(
                    "registry-spec", cli_rel, i,
                    f"CLI text names unresolvable spec {spec!r}: {exc}"))
                continue
            _spec_param_findings(cli_rel, i, spec, params,
                                 KERNELS, PARTITIONERS, TRANSPORTS, findings)

    # 4. every registry entry is referenced by at least one test
    test_text = "\n".join(
        p.read_text() for p in sorted(tests.rglob("*.py"))) if tests.is_dir() else ""
    for label, table in (("stepper", STEPPERS), ("kernel", KERNELS),
                         ("partitioner", PARTITIONERS)):
        for key in table:
            if not re.search(r"['\"]" + re.escape(key), test_text):
                findings.append(Finding(
                    "registry-spec", rel(reg_file[label]), 1,
                    f"{label} registry entry {key!r} has no test referencing "
                    "it (add one before shipping the entry)",
                ))


# -- driver ------------------------------------------------------------------

def _iter_source_files(pkg: Path):
    for path in sorted(pkg.rglob("*.py")):
        yield path


def run_lint(select=None, root: Path | None = None) -> list:
    """Run the selected rules (default: all) over ``src/repro``.

    Returns the findings sorted by path and line; an empty list means
    the tree is clean.  Unknown rule names raise ``ValueError``
    enumerating the registry (the ``DELTA_STRATEGIES`` contract).
    """
    selected = set(select) if select else set(RULES)
    unknown = selected - set(RULES)
    if unknown:
        raise ValueError(
            f"unknown lint rule(s) {sorted(unknown)!r}; known: {', '.join(RULES)}"
        )
    repo_root, pkg, tests = repo_paths()
    if root is not None:
        repo_root = Path(root)
        pkg = repo_root / "src" / "repro"
        tests = repo_root / "tests"
    findings: list = []
    hot_marker_counts: dict = {}
    for path in _iter_source_files(pkg):
        rel = str(path.relative_to(repo_root))
        source = path.read_text()
        try:
            tree = ast.parse(source, filename=str(path))
        except SyntaxError as exc:  # pragma: no cover - repo parses
            findings.append(Finding("hot-loop-alloc", rel, exc.lineno or 1,
                                    f"syntax error: {exc.msg}"))
            continue
        parents = _parent_map(tree)
        if "hot-loop-alloc" in selected:
            before = len(findings)
            count = _check_hot_loop_alloc(path, rel, tree, source, findings)
            hot_marker_counts[path] = count
            # the arena is exempt: its whole job is owning the allocations
            findings[before:] = [
                f for f in findings[before:]
                if not _finding_in_workspace(f, tree, parents)
            ]
        if "recorder-guard" in selected and "obs" not in path.relative_to(pkg).parts:
            _check_recorder_guard(rel, tree, parents, findings)
        if "export-hygiene" in selected:
            _check_export_hygiene(path, rel, tree, findings)
    if "hot-loop-alloc" in selected:
        _check_hot_markers_present(repo_root, pkg, hot_marker_counts, findings)
    if "registry-spec" in selected:
        _check_registry_spec(repo_root, pkg, tests, findings)
    return sorted(findings, key=lambda f: (f.path, f.line, f.rule, f.message))


def _finding_in_workspace(finding: Finding, tree: ast.Module, parents: dict) -> bool:
    """Whether a hot-loop-alloc finding lies inside ``RelaxWorkspace``."""
    for node in ast.walk(tree):
        if getattr(node, "lineno", None) == finding.line and _in_workspace_class(node, parents):
            return True
    return False


def _check_hot_markers_present(root: Path, pkg: Path, counts: dict,
                               findings: list) -> None:
    for spec in HOT_FILES:
        target = pkg / spec
        if target.is_dir():
            total = sum(c for p, c in counts.items() if target in p.parents)
        else:
            total = counts.get(target, 0)
        if total == 0:
            findings.append(Finding(
                "hot-loop-alloc", str(target.relative_to(root)), 1,
                "hot file carries no `# repro: hot` markers — the "
                "zero-allocation contract is unenforced here",
            ))


def format_findings(findings: list, fmt: str = "text") -> str:
    """Render findings as ``text`` (one line each) or ``json``."""
    if fmt == "json":
        return json.dumps({"findings": [f.as_dict() for f in findings],
                           "count": len(findings)}, indent=2)
    if fmt != "text":
        raise ValueError(f"unknown lint format {fmt!r}; known: text, json")
    if not findings:
        return "repro lint: clean (0 findings)"
    lines = [f.render() for f in findings]
    lines.append(f"repro lint: {len(findings)} finding(s)")
    return "\n".join(lines)
