"""Visitor core and rule registry for the IPD invariant lint.

The repro's correctness story rests on a small set of *implementation*
invariants that ordinary tests only catch after the fact: determinism
(no wall-clock or unseeded randomness in engine code), byte-exact
float-sum ordering in the Algorithm-1 hot paths, a typed exception
taxonomy on the runtime/checkpoint failure paths, and a versioned state
codec.  This package machine-checks them *statically*, so a PR that
breaks one fails before a single test runs.

Architecture
------------

* :class:`SourceFile` — one parsed module: source text, AST, and the
  per-line suppression map built from ``# ipd-lint: disable=<rule>``
  comments.
* :class:`Rule` — one invariant.  A rule declares its ``code``
  (``IPD001``...), a one-line ``invariant`` statement, an optional path
  scope (:meth:`Rule.applies_to`), and yields :class:`Finding`s from
  :meth:`Rule.check`.
* :class:`ContextVisitor` — shared AST visitor base that tracks the
  context most rules need: the enclosing function stack, whether that
  function is marked ``@hot_path``, and the ``for``/``while`` loop
  nesting depth.
* registry — rules register themselves with :func:`register`; the
  runner (:func:`lint_paths`) instantiates the registered set (or a
  ``--select`` subset), applies scopes and suppressions, and returns a
  :class:`LintReport`.

Suppression
-----------

A finding is suppressed by a trailing comment on the *flagged line*::

    self._clock = clock or time.monotonic  # ipd-lint: disable=IPD001

Multiple rules separate with commas (``disable=IPD001,IPD005``);
``disable=all`` silences every rule for that line.  Suppressions are
deliberately line-scoped — there is no file- or block-level escape
hatch, so every exemption is visible next to the code it exempts.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Optional, Sequence, Type

__all__ = [
    "Finding",
    "SourceFile",
    "Rule",
    "ContextVisitor",
    "LintReport",
    "collect_import_aliases",
    "register",
    "registered_rules",
    "build_rules",
    "iter_source_files",
    "lint_paths",
]

#: rule code for files the linter itself cannot parse
PARSE_ERROR_CODE = "IPD000"

_SUPPRESS_RE = re.compile(r"#\s*ipd-lint:\s*disable=([A-Za-z0-9_,\s]+)")

_SKIP_DIRS = {"__pycache__", ".git", "build", "dist"}


def collect_import_aliases(
    tree: ast.AST,
) -> tuple[dict[str, str], dict[str, tuple[str, str]]]:
    """Resolve the local names an ``import`` statement binds.

    Returns ``(module_aliases, symbol_aliases)``: ``module_aliases``
    maps a local name to the dotted module it denotes (``import
    datetime as d`` -> ``{"d": "datetime"}``), ``symbol_aliases`` maps
    a local name to ``(module, symbol)`` (``from datetime import
    datetime as dtc`` -> ``{"dtc": ("datetime", "datetime")}``).
    Relative imports keep their leading dots in the module key so
    callers can resolve them against the importing module's package.
    """
    modules: dict[str, str] = {}
    symbols: dict[str, tuple[str, str]] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                target = alias.name if alias.asname else alias.name.split(".")[0]
                modules[local] = target
        elif isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            for alias in node.names:
                if alias.name == "*":
                    continue
                symbols[alias.asname or alias.name] = (module, alias.name)
    return modules, symbols


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    path: str
    line: int
    col: int
    message: str

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"

    def to_dict(self) -> dict[str, object]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }

    def sort_key(self) -> tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.rule)


class SourceFile:
    """A parsed module plus everything the rules need to inspect it."""

    def __init__(self, path: Path, root: Path) -> None:
        self.path = path
        self.root = root
        try:
            self.rel = path.relative_to(root).as_posix()
        except ValueError:  # scanned file outside the scan root
            self.rel = path.name
        self.text = path.read_text(encoding="utf-8")
        self.lines = self.text.splitlines()
        self.syntax_error: Optional[SyntaxError] = None
        try:
            self.tree: Optional[ast.Module] = ast.parse(self.text)
        except SyntaxError as exc:
            self.tree = None
            self.syntax_error = exc
        self._suppressions = self._scan_suppressions()
        self._import_aliases: (
            "tuple[dict[str, str], dict[str, tuple[str, str]]] | None"
        ) = None

    def import_aliases(
        self,
    ) -> tuple[dict[str, str], dict[str, tuple[str, str]]]:
        """The module's import table (see :func:`collect_import_aliases`)."""
        if self._import_aliases is None:
            if self.tree is None:
                self._import_aliases = ({}, {})
            else:
                self._import_aliases = collect_import_aliases(self.tree)
        return self._import_aliases

    @property
    def display_path(self) -> str:
        """Path as reported in findings (relative to the invoking cwd)."""
        try:
            return self.path.resolve().relative_to(Path.cwd()).as_posix()
        except ValueError:
            return str(self.path)

    def _scan_suppressions(self) -> dict[int, set[str]]:
        table: dict[int, set[str]] = {}
        for lineno, line in enumerate(self.lines, start=1):
            if "ipd-lint" not in line:
                continue
            match = _SUPPRESS_RE.search(line)
            if match is None:
                continue
            codes = {
                code.strip().upper()
                for code in match.group(1).split(",")
                if code.strip()
            }
            if codes:
                table[lineno] = codes
        return table

    def suppressed(self, rule: str, line: int) -> bool:
        codes = self._suppressions.get(line)
        if codes is None:
            return False
        return rule.upper() in codes or "ALL" in codes

    def finding(self, rule: "Rule | str", node: ast.AST, message: str) -> Finding:
        code = rule if isinstance(rule, str) else rule.code
        return Finding(
            rule=code,
            path=self.display_path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            message=message,
        )


class Rule:
    """Base class for one lint rule (one machine-checked invariant)."""

    #: stable identifier, e.g. ``IPD001`` — used in output and suppressions
    code: str = ""
    #: short kebab-case name, e.g. ``no-wallclock``
    name: str = ""
    #: one-line statement of the invariant the rule enforces
    invariant: str = ""

    def applies_to(self, source: SourceFile) -> bool:
        """Path scope; default is every scanned file."""
        return True

    def check(self, source: SourceFile) -> Iterator[Finding]:
        raise NotImplementedError

    def describe(self) -> dict[str, str]:
        return {"code": self.code, "name": self.name, "invariant": self.invariant}


class ContextVisitor(ast.NodeVisitor):
    """AST visitor tracking function / hot-path / loop context.

    Subclasses get:

    * ``self.source`` — the :class:`SourceFile` under inspection
    * ``self.findings`` — append :class:`Finding`s here
    * ``self.function_stack`` — enclosing ``FunctionDef``s, innermost last
    * ``self.hot_depth`` — > 0 inside a function marked ``@hot_path``
    * ``self.loop_depth`` — ``for``/``while`` nesting depth *within the
      innermost function* (reset at function boundaries)
    """

    def __init__(self, rule: Rule, source: SourceFile) -> None:
        self.rule = rule
        self.source = source
        self.findings: list[Finding] = []
        self.function_stack: list[ast.AST] = []
        self.hot_depth = 0
        self.loop_depth = 0

    # -- context maintenance -------------------------------------------------

    def _is_hot_marker(self, decorator: ast.expr) -> bool:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if isinstance(target, ast.Name):
            return target.id == "hot_path"
        if isinstance(target, ast.Attribute):
            return target.attr == "hot_path"
        return False

    def _visit_function(
        self, node: "ast.FunctionDef | ast.AsyncFunctionDef"
    ) -> None:
        hot = any(self._is_hot_marker(dec) for dec in node.decorator_list)
        outer_loop_depth = self.loop_depth
        outer_hot_depth = self.hot_depth
        self.loop_depth = 0
        # a nested def opens a fresh runtime scope: the enclosing
        # function's hot-path context does not apply to its body unless
        # the nested function carries its own @hot_path marker
        if self.function_stack and not hot:
            self.hot_depth = 0
        self.function_stack.append(node)
        if hot:
            self.hot_depth += 1
        self.enter_function(node, hot)
        self.generic_visit(node)
        self.function_stack.pop()
        self.hot_depth = outer_hot_depth
        self.loop_depth = outer_loop_depth

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_function(node)

    def visit_Lambda(self, node: ast.Lambda) -> None:
        # a lambda body runs in its own (never-hot) scope, like a
        # nested def: neither hot-path nor loop context leaks in
        outer_loop_depth = self.loop_depth
        outer_hot_depth = self.hot_depth
        self.loop_depth = 0
        self.hot_depth = 0
        self.function_stack.append(node)
        self.generic_visit(node)
        self.function_stack.pop()
        self.hot_depth = outer_hot_depth
        self.loop_depth = outer_loop_depth

    def _visit_loop(self, node: "ast.For | ast.While | ast.AsyncFor") -> None:
        # the iterable / condition is evaluated outside the loop body
        if isinstance(node, (ast.For, ast.AsyncFor)):
            self.visit(node.iter)
            self.visit(node.target)
        else:
            self.visit(node.test)
        self.loop_depth += 1
        for stmt in node.body:
            self.visit(stmt)
        self.loop_depth -= 1
        for stmt in node.orelse:
            self.visit(stmt)

    def visit_For(self, node: ast.For) -> None:
        self._visit_loop(node)

    def visit_AsyncFor(self, node: ast.AsyncFor) -> None:
        self._visit_loop(node)

    def visit_While(self, node: ast.While) -> None:
        self._visit_loop(node)

    # -- subclass hooks ------------------------------------------------------

    def enter_function(
        self, node: "ast.FunctionDef | ast.AsyncFunctionDef", hot: bool
    ) -> None:
        """Called when a function scope opens (before its body is visited)."""

    # -- reporting -----------------------------------------------------------

    def report(self, node: ast.AST, message: str) -> None:
        self.findings.append(self.source.finding(self.rule, node, message))


class VisitorRule(Rule):
    """A rule implemented as one :class:`ContextVisitor` pass."""

    visitor_class: Type[ContextVisitor] = ContextVisitor

    def check(self, source: SourceFile) -> Iterator[Finding]:
        if source.tree is None:
            return
        visitor = self.visitor_class(self, source)
        visitor.visit(source.tree)
        yield from visitor.findings


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

_REGISTRY: dict[str, Type[Rule]] = {}


def register(rule_class: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule to the global registry."""
    code = rule_class.code
    if not code:
        raise ValueError(f"rule {rule_class.__name__} has no code")
    if code in _REGISTRY:
        raise ValueError(f"duplicate rule code {code}")
    _REGISTRY[code] = rule_class
    return rule_class


def registered_rules() -> dict[str, Type[Rule]]:
    """The registered rule classes, keyed by code (copy)."""
    return dict(_REGISTRY)


def build_rules(
    select: Optional[Sequence[str]] = None, **config: object
) -> list[Rule]:
    """Instantiate the registered rules (or the ``select`` subset).

    ``config`` entries are applied as attributes to any rule that
    declares them (e.g. ``codec_pins=...`` for IPD004), so tests can
    point a rule at fixture configuration without a parallel registry.
    """
    # rules register on import of the rules module; import lazily to
    # avoid a cycle (rules import framework)
    from . import rules as _rules  # noqa: F401  (import registers rules)

    if select is not None:
        unknown = [code for code in select if code.upper() not in _REGISTRY]
        if unknown:
            known = ", ".join(sorted(_REGISTRY))
            raise ValueError(
                f"unknown rule code(s) {', '.join(unknown)}; known: {known}"
            )
        codes = [code.upper() for code in select]
    else:
        codes = sorted(_REGISTRY)
    rules: list[Rule] = []
    for code in codes:
        rule = _REGISTRY[code]()
        for key, value in config.items():
            if hasattr(type(rule), key) or hasattr(rule, key):
                setattr(rule, key, value)
        rules.append(rule)
    return rules


# ---------------------------------------------------------------------------
# runner
# ---------------------------------------------------------------------------


@dataclass
class LintReport:
    """Everything one lint run produced."""

    findings: list[Finding] = field(default_factory=list)
    files_scanned: int = 0
    suppressed: int = 0
    rules: list[Rule] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.findings

    def by_rule(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for finding in self.findings:
            counts[finding.rule] = counts.get(finding.rule, 0) + 1
        return counts

    def to_dict(self) -> dict[str, object]:
        return {
            "files_scanned": self.files_scanned,
            "findings": [finding.to_dict() for finding in self.findings],
            "suppressed": self.suppressed,
            "counts": self.by_rule(),
            "clean": self.clean,
        }


def iter_source_files(paths: Iterable[Path]) -> Iterator[tuple[Path, Path]]:
    """Yield ``(scan_root, file)`` for every Python file under *paths*."""
    for raw in paths:
        path = Path(raw)
        if path.is_file():
            yield path.parent, path
            continue
        if not path.is_dir():
            raise FileNotFoundError(f"no such file or directory: {path}")
        for file in sorted(path.rglob("*.py")):
            if any(part in _SKIP_DIRS for part in file.parts):
                continue
            if any(part.endswith(".egg-info") for part in file.parts):
                continue
            yield path, file


def lint_paths(
    paths: "Sequence[Path | str]",
    select: Optional[Sequence[str]] = None,
    **config: object,
) -> LintReport:
    """Run the registered rules over *paths* and return the report."""
    rules = build_rules(select, **config)
    report = LintReport(rules=rules)
    for root, file in iter_source_files(Path(p) for p in paths):
        source = SourceFile(file, root)
        report.files_scanned += 1
        if source.syntax_error is not None:
            err = source.syntax_error
            report.findings.append(
                Finding(
                    rule=PARSE_ERROR_CODE,
                    path=source.display_path,
                    line=err.lineno or 1,
                    col=(err.offset or 0) + 1,
                    message=f"file does not parse: {err.msg}",
                )
            )
            continue
        for rule in rules:
            if not rule.applies_to(source):
                continue
            for finding in rule.check(source):
                if source.suppressed(finding.rule, finding.line):
                    report.suppressed += 1
                else:
                    report.findings.append(finding)
    report.findings.sort(key=Finding.sort_key)
    return report
