"""The repo-specific lint rules (IPD001–IPD005, IPD007, IPD008).

Each rule encodes one load-bearing invariant of the reproduction; the
``invariant`` attribute is the sentence DESIGN.md §10 documents.  Rules
are registered on import and instantiated per run by
:func:`repro.devtools.framework.build_rules`.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterator

from .codecguard import (
    DEFAULT_PIN_PATH,
    extract_codec_version,
    load_pins,
    pin_for,
    structural_fingerprint,
)
from .framework import (
    ContextVisitor,
    Finding,
    Rule,
    SourceFile,
    VisitorRule,
    register,
)

__all__ = [
    "NoWallclockRule",
    "SeededRngRule",
    "ExceptionTaxonomyRule",
    "CodecGuardRule",
    "HotPathHygieneRule",
    "NoPickleHotPathRule",
    "LookupAllocRule",
]


# ---------------------------------------------------------------------------
# IPD001 — no wall-clock in engine code
# ---------------------------------------------------------------------------

#: wall-clock reads that make replay output depend on the host clock;
#: ``time.perf_counter`` is *not* listed — duration metrics (sweep
#: timing) are allowed because no classification decision reads them
_WALLCLOCK_TIME_ATTRS = {"time", "monotonic", "monotonic_ns", "time_ns"}


class _WallclockVisitor(ContextVisitor):
    def visit_Attribute(self, node: ast.Attribute) -> None:
        value = node.value
        if self._names_module(value, "time"):
            if node.attr in _WALLCLOCK_TIME_ATTRS:
                self.report(
                    node,
                    f"wall-clock read time.{node.attr}: engine code must use "
                    "trace timestamps or an injected clock",
                )
        if node.attr == "utcnow":
            self.report(
                node,
                "datetime.utcnow() reads the wall clock; engine code must "
                "use trace timestamps or an injected clock",
            )
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr == "now"
            and not node.args
            and not node.keywords
            and self._mentions_datetime(func.value)
        ):
            self.report(
                node,
                "argless datetime.now() reads the local wall clock; pass an "
                "explicit timezone-aware source or inject a clock",
            )
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module == "time":
            for alias in node.names:
                if alias.name in _WALLCLOCK_TIME_ATTRS:
                    self.report(
                        node,
                        f"importing {alias.name} from time pulls a wall-clock "
                        "read into engine code",
                    )
        self.generic_visit(node)

    def _names_module(self, value: ast.expr, module: str) -> bool:
        """True when *value* denotes *module*, through any import alias."""
        if not isinstance(value, ast.Name):
            return False
        if value.id == module:
            return True
        module_aliases, _ = self.source.import_aliases()
        return module_aliases.get(value.id) == module

    def _mentions_datetime(self, value: ast.expr) -> bool:
        if isinstance(value, ast.Name):
            if value.id in ("datetime", "dt") or self._names_module(
                value, "datetime"
            ):
                return True
            _, symbol_aliases = self.source.import_aliases()
            return symbol_aliases.get(value.id) == ("datetime", "datetime")
        if isinstance(value, ast.Attribute):
            # d.datetime.now() — the module half is checked by the
            # attr name; the base may itself be an import alias
            return value.attr == "datetime"
        return False


@register
class NoWallclockRule(VisitorRule):
    code = "IPD001"
    name = "no-wallclock"
    invariant = (
        "Engine code never reads the wall clock: time.time / time.monotonic "
        "/ argless datetime.now() are banned outside perf_counter timing "
        "sites and LivePipeline's injectable clock default."
    )
    visitor_class = _WallclockVisitor


# ---------------------------------------------------------------------------
# IPD002 — all randomness is explicitly seeded
# ---------------------------------------------------------------------------


class _SeededRngVisitor(ContextVisitor):
    def visit_Attribute(self, node: ast.Attribute) -> None:
        value = node.value
        if isinstance(value, ast.Name):
            if value.id == "random" and node.attr != "Random":
                self.report(
                    node,
                    f"module-level random.{node.attr} uses the shared "
                    "unseeded RNG; build a random.Random(seed) instead",
                )
            elif value.id in ("np", "numpy") and node.attr == "random":
                self.report(
                    node,
                    "numpy.random global state is unseeded across runs; use "
                    "numpy.random.Generator seeded explicitly (or stdlib "
                    "random.Random(seed))",
                )
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        is_random_ctor = (isinstance(func, ast.Name) and func.id == "Random") or (
            isinstance(func, ast.Attribute)
            and func.attr == "Random"
            and isinstance(func.value, ast.Name)
            and func.value.id == "random"
        )
        if is_random_ctor and not node.args and not node.keywords:
            self.report(
                node,
                "random.Random() without a seed is nondeterministic; pass an "
                "explicit seed",
            )
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module == "random":
            for alias in node.names:
                if alias.name != "Random":
                    self.report(
                        node,
                        f"importing {alias.name} from random binds the shared "
                        "unseeded RNG; import Random and seed it",
                    )
        elif node.module in ("numpy", "numpy.random") and any(
            alias.name == "random" or node.module == "numpy.random"
            for alias in node.names
        ):
            self.report(
                node,
                "numpy.random global state is unseeded across runs; use a "
                "seeded numpy.random.Generator",
            )
        self.generic_visit(node)


@register
class SeededRngRule(VisitorRule):
    code = "IPD002"
    name = "seeded-rng"
    invariant = (
        "All randomness flows through explicitly seeded generators: no "
        "module-level random.*, no unseeded random.Random(), no "
        "numpy.random global state in src/repro."
    )
    visitor_class = _SeededRngVisitor


# ---------------------------------------------------------------------------
# IPD003 — typed exception taxonomy on runtime failure paths
# ---------------------------------------------------------------------------

#: raising these directly loses the typed taxonomy the recovery paths
#: dispatch on (WorkerCrashError / StateCodecError / CheckpointCorruptError …)
_GENERIC_RAISES = {"Exception", "BaseException", "RuntimeError"}

_BROAD_EXCEPTS = {"Exception", "BaseException"}


class _ExceptionTaxonomyVisitor(ContextVisitor):
    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if node.type is None:
            self.report(
                node,
                "bare except: swallows everything including KeyboardInterrupt;"
                " catch the typed exceptions the failure path documents",
            )
        elif self._is_broad(node.type) and not self._reraises(node):
            self.report(
                node,
                "except Exception that does not re-raise silently swallows "
                "failures; narrow to the typed hierarchy or re-raise",
            )
        self.generic_visit(node)

    def visit_Raise(self, node: ast.Raise) -> None:
        exc = node.exc
        target = exc.func if isinstance(exc, ast.Call) else exc
        if isinstance(target, ast.Name) and target.id in _GENERIC_RAISES:
            self.report(
                node,
                f"raise {target.id} is untyped; raise a member of the typed "
                "hierarchy (StateCodecError / CheckpointCorruptError / "
                "WorkerCrashError / PipelineStateError …)",
            )
        self.generic_visit(node)

    @staticmethod
    def _is_broad(annotation: ast.expr) -> bool:
        names: list[ast.expr] = (
            list(annotation.elts)
            if isinstance(annotation, ast.Tuple)
            else [annotation]
        )
        return any(
            isinstance(name, ast.Name) and name.id in _BROAD_EXCEPTS
            for name in names
        )

    @staticmethod
    def _reraises(handler: ast.ExceptHandler) -> bool:
        return any(
            isinstance(stmt, ast.Raise)
            for stmt in ast.walk(ast.Module(body=handler.body, type_ignores=[]))
        )


@register
class ExceptionTaxonomyRule(VisitorRule):
    code = "IPD003"
    name = "exception-taxonomy"
    invariant = (
        "Runtime and codec failure paths never swallow broad exceptions and "
        "never raise untyped ones: recovery dispatches on the typed "
        "hierarchy, so a swallowed or generic error breaks it silently."
    )
    visitor_class = _ExceptionTaxonomyVisitor

    def applies_to(self, source: SourceFile) -> bool:
        parts = Path(source.rel).parts
        return (
            "runtime" in parts
            or Path(source.rel).name
            in ("framing.py", "statecodec.py", "checkpoint.py")
        )


# ---------------------------------------------------------------------------
# IPD004 — codec layout changes require a version bump
# ---------------------------------------------------------------------------


@register
class CodecGuardRule(Rule):
    code = "IPD004"
    name = "codec-guard"
    invariant = (
        "The structural fingerprint of each codec module's encoded "
        "dataclass layouts and wire constants (statecodec.py, "
        "admission.py) is pinned to its CODEC_VERSION: changing a layout "
        "without bumping that version fails."
    )

    #: overridable pin file (tests point this at fixture pins)
    codec_pins: "Path | str" = DEFAULT_PIN_PATH

    def applies_to(self, source: SourceFile) -> bool:
        return Path(source.rel).name in ("statecodec.py", "admission.py")

    def check(self, source: SourceFile) -> Iterator[Finding]:
        tree = source.tree
        assert tree is not None  # framework skips unparsable files
        stem = Path(source.rel).stem
        version = extract_codec_version(tree)
        if version is None:
            yield source.finding(
                self,
                tree,
                f"{stem}.py defines no CODEC_VERSION integer literal; the "
                "wire format must be explicitly versioned",
            )
            return
        try:
            pins = load_pins(self.codec_pins)
        except FileNotFoundError:
            yield source.finding(
                self,
                tree,
                f"codec fingerprint pin file {self.codec_pins} is missing; "
                "record it with --record-codec-pin",
            )
            return
        fingerprint = structural_fingerprint(tree)
        pinned = pin_for(pins, stem, version)
        if pinned is None:
            yield source.finding(
                self,
                tree,
                f"CODEC_VERSION {version} has no recorded fingerprint; after "
                "an intentional format change, record it with "
                "--record-codec-pin",
            )
        elif pinned != fingerprint:
            yield source.finding(
                self,
                tree,
                f"encoded layout changed but CODEC_VERSION is still {version}"
                f" (fingerprint {fingerprint[:12]}… != pinned {pinned[:12]}…);"
                " bump CODEC_VERSION and re-record the pin",
            )


# ---------------------------------------------------------------------------
# IPD005 — hot-path hygiene
# ---------------------------------------------------------------------------


class _HotPathVisitor(ContextVisitor):
    def _in_hot_loop(self) -> bool:
        return self.hot_depth > 0 and self.loop_depth > 0

    def _report_comprehension(self, node: ast.AST, kind: str) -> None:
        if self._in_hot_loop():
            self.report(
                node,
                f"{kind} allocates a fresh object per iteration inside a "
                "@hot_path loop; build once outside the loop or mutate in "
                "place",
            )

    def visit_ListComp(self, node: ast.ListComp) -> None:
        self._report_comprehension(node, "list comprehension")
        self.generic_visit(node)

    def visit_SetComp(self, node: ast.SetComp) -> None:
        self._report_comprehension(node, "set comprehension")
        self.generic_visit(node)

    def visit_DictComp(self, node: ast.DictComp) -> None:
        self._report_comprehension(node, "dict comprehension")
        self.generic_visit(node)

    def visit_GeneratorExp(self, node: ast.GeneratorExp) -> None:
        self._report_comprehension(node, "generator expression")
        self.generic_visit(node)

    def visit_BinOp(self, node: ast.BinOp) -> None:
        if self._in_hot_loop() and isinstance(node.op, ast.Add):
            if any(
                isinstance(side, ast.JoinedStr)
                or (
                    isinstance(side, ast.Constant)
                    and isinstance(side.value, str)
                )
                for side in (node.left, node.right)
            ):
                self.report(
                    node,
                    "string concatenation with + allocates inside a "
                    "@hot_path loop; precompute or use join outside the loop",
                )
        self.generic_visit(node)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        # flag the `self.<x>.<y>` link of any self-rooted chain of depth
        # >= 2 inside a hot loop: `self` is loop-invariant, so the inner
        # lookup should be hoisted to a local before the loop
        if (
            self._in_hot_loop()
            and isinstance(node.value, ast.Attribute)
            and isinstance(node.value.value, ast.Name)
            and node.value.value.id in ("self", "cls")
        ):
            base = node.value.value.id
            chain = f"{base}.{node.value.attr}.{node.attr}"
            self.report(
                node,
                f"attribute chain {chain} re-resolved every iteration of a "
                f"@hot_path loop; hoist {base}.{node.value.attr} to a local "
                "before the loop",
            )
        self.generic_visit(node)


@register
class HotPathHygieneRule(VisitorRule):
    code = "IPD005"
    name = "hot-path-hygiene"
    invariant = (
        "Functions marked @hot_path (Algorithm-1 ingest and sweep) keep "
        "their loops allocation-clean: no comprehensions, no +-string "
        "builds, no re-resolved self.x.y attribute chains inside loops."
    )
    visitor_class = _HotPathVisitor


# ---------------------------------------------------------------------------
# IPD007 — no pickle on hot paths
# ---------------------------------------------------------------------------

#: object-serialization modules whose use the rule bans in scope;
#: per-record Python object (de)serialization has no place in a
#: per-flow loop
_SERIALIZER_MODULES = {"pickle", "marshal"}


class _NoPickleVisitor(ContextVisitor):
    """Flags pickle/marshal imports and calls inside ``@hot_path`` bodies."""

    def _flag(self, node: ast.AST, what: str) -> None:
        self.report(
            node,
            f"{what} inside a @hot_path function; hot paths move columns "
            "and scalars, never serialized objects",
        )

    def visit_Import(self, node: ast.Import) -> None:
        if self.hot_depth > 0:
            for alias in node.names:
                root = alias.name.split(".")[0]
                if root in _SERIALIZER_MODULES:
                    self._flag(node, f"import of {root}")
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if self.hot_depth > 0 and node.module is not None:
            root = node.module.split(".")[0]
            if root in _SERIALIZER_MODULES:
                self._flag(node, f"import from {root}")
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if (
            self.hot_depth > 0
            and isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id in _SERIALIZER_MODULES
        ):
            self._flag(node, f"{func.value.id}.{func.attr}() call")
        self.generic_visit(node)


@register
class NoPickleHotPathRule(VisitorRule):
    code = "IPD007"
    name = "no-pickle-hot-path"
    invariant = (
        "Object serialization (pickle/marshal) never runs inside a "
        "@hot_path function."
    )
    visitor_class = _NoPickleVisitor


# ---------------------------------------------------------------------------
# IPD008 — serving lookups never allocate containers
# ---------------------------------------------------------------------------

#: builtin container constructors whose call allocates on every lookup
_CONTAINER_BUILTINS = {"dict", "list", "set"}


class _LookupAllocVisitor(ContextVisitor):
    """Flags per-call container allocation in ``@hot_path`` lookups.

    Scope: the body of any ``@hot_path`` function whose name starts with
    ``lookup`` — the serving plane's per-request path, where a dict or
    list built per call is pure allocator pressure at hundreds of
    thousands of lookups per second.  Bulk variants that legitimately
    build a result list stay unmarked (``lookup_many``) or aggregate
    outside the marked function.
    """

    def _in_hot_lookup(self) -> bool:
        if self.hot_depth == 0:
            return False
        return any(
            str(getattr(fn, "name", "")).startswith("lookup")
            for fn in self.function_stack
        )

    def _flag(self, node: ast.AST, what: str) -> None:
        self.report(
            node,
            f"{what} allocates a container per call inside a @hot_path "
            "lookup function; return row indices or scalars, or move "
            "aggregation to an unmarked bulk wrapper",
        )

    def visit_Dict(self, node: ast.Dict) -> None:
        if self._in_hot_lookup():
            self._flag(node, "dict display")
        self.generic_visit(node)

    def visit_List(self, node: ast.List) -> None:
        if self._in_hot_lookup() and isinstance(node.ctx, ast.Load):
            self._flag(node, "list display")
        self.generic_visit(node)

    def visit_Set(self, node: ast.Set) -> None:
        if self._in_hot_lookup():
            self._flag(node, "set display")
        self.generic_visit(node)

    def visit_ListComp(self, node: ast.ListComp) -> None:
        if self._in_hot_lookup():
            self._flag(node, "list comprehension")
        self.generic_visit(node)

    def visit_SetComp(self, node: ast.SetComp) -> None:
        if self._in_hot_lookup():
            self._flag(node, "set comprehension")
        self.generic_visit(node)

    def visit_DictComp(self, node: ast.DictComp) -> None:
        if self._in_hot_lookup():
            self._flag(node, "dict comprehension")
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if (
            self._in_hot_lookup()
            and isinstance(func, ast.Name)
            and func.id in _CONTAINER_BUILTINS
        ):
            self._flag(node, f"{func.id}() call")
        self.generic_visit(node)


@register
class LookupAllocRule(VisitorRule):
    code = "IPD008"
    name = "lookup-alloc-free"
    invariant = (
        "@hot_path functions named lookup* never allocate dict/list/set "
        "containers per call: the serving plane's per-request path stays "
        "allocation-free, with aggregation in unmarked bulk wrappers."
    )
    visitor_class = _LookupAllocVisitor
