"""Cross-module dataflow rules (IPD009–IPD012).

These rules run over the :class:`~repro.devtools.project.ProjectGraph`
rather than one file at a time, because the invariants they enforce
live *between* definitions:

* **IPD009 codec-symmetry** — every write-side codec function in
  ``statecodec.py`` / ``lpm.py`` has a decode twin whose primitive
  read sequence mirrors the write sequence in order,
  field and struct width.  This is the static twin of the IPD004
  fingerprint pin: the pin catches a drifted wire layout after the
  fact, this rule points at the exact write/read pair that diverged.
* **IPD010 iteration-order-taint** — a value drawn from ``set`` /
  ``frozenset`` iteration must pass through an order-fixing step
  (``sorted`` & friends) before it reaches codec output, snapshot
  records or CSV/archive writes.  Python sets hash-order their
  elements, so un-sorted set iteration feeding serialized output is a
  byte-determinism bug even when every individual element is right.
* **IPD011 executor-state-discipline** — parent-side executor methods
  must not reach through a worker handle into worker-owned engine
  state (``self._worker.engines...``); engine state crosses the
  process/thread boundary only via the op/FIFO protocol (``handle``).
* **IPD012 lifecycle-typestate** — ``close()`` is exactly-once and no
  use may follow it for the runtime resource classes (``Sink``,
  ``CheckpointStore``, ``Pipeline``, ``LivePipeline``);
  ``LivePipeline.start()`` is once as well.  Checked path-sensitively
  over the per-function CFG with a *must* analysis, so a close in one
  branch of a diamond does not flag a use after the join unless every
  path closed.

IPD010 and IPD012 build on :mod:`repro.devtools.dataflow` (per-function
CFGs plus a forward fixpoint); IPD009 and IPD011 are order/shape
comparisons over the symbol graph.  All four are *conservative*: they
track local variables and ``self`` attributes with known types and drop
facts whenever a value escapes through an alias, a call argument or a
container, trading recall for a near-zero false-positive rate (the
price: a close inside a loop body rejoins the loop header with the
must-facts intersected away, so a second-iteration double close is not
reported).
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from .dataflow import ForwardAnalysis, build_cfg, header_exprs
from .framework import Finding, ProjectRule, register
from .project import (
    ClassInfo,
    ModuleInfo,
    ProjectGraph,
    _annotation_is_set,
)

__all__ = [
    "CodecSymmetryRule",
    "IterationOrderTaintRule",
    "ExecutorStateDisciplineRule",
    "LifecycleTypestateRule",
]


# ---------------------------------------------------------------------------
# shared naming conventions
# ---------------------------------------------------------------------------

_ENC_TOKENS = frozenset({"encode", "write", "pack"})
_DEC_TOKENS = frozenset({"decode", "read", "unpack"})
#: connective tokens that carry no pairing information
_NEUTRAL_TOKENS = frozenset(
    {"to", "from", "bytes", "with", "into", "span", "at", "impl"}
)


def _name_tokens(name: str) -> list[str]:
    return [tok for tok in name.strip("_").lower().split("_") if tok]


def _codec_role(name: str) -> Optional[str]:
    """``"enc"`` / ``"dec"`` / ``None`` from a function name.

    ``to_bytes``/``from_bytes`` count as encode/decode; a lone ``to`` or
    ``from`` (``tree_to_image``, ``build_lpm_from_records``) does not.
    """
    tokens = set(_name_tokens(name))
    if "bytes" in tokens:
        if "to" in tokens:
            return "enc"
        if "from" in tokens:
            return "dec"
    if tokens & _ENC_TOKENS:
        return "enc"
    if tokens & _DEC_TOKENS:
        return "dec"
    return None


def _pair_key(name: str, cls_name: Optional[str], module_stem: str) -> str:
    """The identity that matches an encoder with its decode twin.

    Role and connective tokens are stripped (``_write_node`` and
    ``_read_node`` both key as ``node``); a fully role-named method
    (``to_bytes``, ``encode_into``) keys on its class with any
    ``Encoder``/``Decoder`` suffix removed, so ``FlowBatchEncoder`` and
    ``FlowBatchDecoder`` land in one group.
    """
    drop = _ENC_TOKENS | _DEC_TOKENS | _NEUTRAL_TOKENS
    tokens = [tok for tok in _name_tokens(name) if tok not in drop]
    if tokens:
        return "-".join(tokens)
    if cls_name is not None:
        return "class:" + re.sub(r"(Encoder|Decoder)$", "", cls_name)
    return "module:" + module_stem


#: primitive wire-op methods of the in-tree writer/reader pairs; extended
#: per run with any method exposed by *both* a ``*Writer`` and a
#: ``*Reader`` class found in the scanned files
_DEFAULT_PRIMITIVES = frozenset(
    {"byte", "uvarint", "float", "string", "ingress", "prefix"}
)


def _discover_primitives(graph: ProjectGraph) -> frozenset[str]:
    writers: set[str] = set()
    readers: set[str] = set()
    for module in graph.modules:
        for cls in module.classes.values():
            lowered = cls.name.lstrip("_").lower()
            public = {m for m in cls.methods if not m.startswith("_")}
            if lowered.endswith("writer"):
                writers |= public
            elif lowered.endswith("reader"):
                readers |= public
    # ``raw`` moves untyped bytes and is handled separately (magic tags)
    return frozenset(_DEFAULT_PRIMITIVES | ((writers & readers) - {"raw"}))


def _functions_of(
    module: ModuleInfo,
) -> "Iterator[tuple[ast.FunctionDef | ast.AsyncFunctionDef, Optional[ClassInfo]]]":
    for func in module.functions.values():
        yield func, None
    for cls in module.classes.values():
        for method in cls.methods.values():
            yield method, cls


def _assigned_names(target: ast.expr) -> Iterator[str]:
    """Bare names bound by an assignment/loop/with target."""
    if isinstance(target, ast.Name):
        yield target.id
    elif isinstance(target, (ast.Tuple, ast.List)):
        for elt in target.elts:
            yield from _assigned_names(elt)
    elif isinstance(target, ast.Starred):
        yield from _assigned_names(target.value)


# ---------------------------------------------------------------------------
# IPD009 — codec symmetry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Op:
    """One abstract wire operation in an encode or decode sequence."""

    kind: str  # "prim" | "struct" | "pair" | "magic"
    detail: str  # primitive name / struct fmt / pair key / constant name
    name: Optional[str]  # field identifier when one is statically visible
    line: int

    def label(self) -> str:
        if self.kind == "prim":
            field = self.name if self.name is not None else "..."
            return f"{self.detail}({field})"
        if self.kind == "struct":
            return f"struct[{self.detail!r}]"
        if self.kind == "magic":
            return f"magic:{self.detail}"
        return f"pair:{self.detail}"


@dataclass
class _Branch:
    """A control-flow split in an op sequence.

    Each alternative is ``(items, exit)`` where *exit* is ``"open"``
    (falls through to what follows), ``"return"`` (completes the
    function's wire sequence here) or ``"error"`` (raises — error paths
    carry no wire bytes and are excluded from the comparison).
    """

    alternatives: "list[tuple[list[object], str]]"


#: one element of an extracted sequence: an op or a branch point
_Item = "_Op | _Branch"

#: path-explosion safety valve; codec functions stay far below this
_PATH_CAP = 256


def _has_ops(items: "Sequence[object]") -> bool:
    for item in items:
        if isinstance(item, _Op):
            return True
        if isinstance(item, _Branch):
            if any(_has_ops(alt) for alt, _exit in item.alternatives):
                return True
    return False


def _expand_paths(
    items: "Sequence[object]",
) -> "tuple[list[tuple[_Op, ...]], list[tuple[_Op, ...]]]":
    """All op paths through *items*: ``(completed, still-open)``.

    A path completes at a ``return`` alternative and dies at an
    ``error`` one; paths that fall off the end come back as *open* (the
    caller treats an open path at function end as completed).
    """
    open_paths: "list[tuple[_Op, ...]]" = [()]
    completed: "list[tuple[_Op, ...]]" = []
    for item in items:
        if not open_paths:
            break
        if isinstance(item, _Op):
            open_paths = [path + (item,) for path in open_paths]
            continue
        assert isinstance(item, _Branch)
        new_open: "list[tuple[_Op, ...]]" = []
        for alt_items, alt_exit in item.alternatives:
            sub_completed, sub_open = _expand_paths(alt_items)
            for prefix in open_paths:
                for sub in sub_completed:
                    completed.append(prefix + sub)
                if alt_exit == "open":
                    for sub in sub_open:
                        new_open.append(prefix + sub)
                elif alt_exit == "return":
                    for sub in sub_open:
                        completed.append(prefix + sub)
                # "error": open sub-paths die here
        open_paths = new_open[:_PATH_CAP]
        completed = completed[:_PATH_CAP]
    return completed, open_paths


@dataclass
class _CodecScope:
    module: ModuleInfo
    cls: Optional[ClassInfo]
    primitives: frozenset[str]


class _OpExtractor:
    """Extract every wire-op path of one codec function.

    Branches are kept as alternatives (an optional-field ``if`` on the
    encode side matches a conditional read on the decode side whatever
    the surface syntax), loop bodies are inlined zero-or-once, and
    ``raise`` statements / ``except`` handlers end their path — error
    paths carry no wire bytes.  The symmetry check then compares the
    *set* of paths on each side, so a divergence hiding in a short
    branch is found even when a longer sibling branch is clean.
    """

    def __init__(self, scope: _CodecScope) -> None:
        self.scope = scope

    def extract_paths(
        self, func: "ast.FunctionDef | ast.AsyncFunctionDef"
    ) -> "list[tuple[_Op, ...]]":
        items, exit_kind = self._items(list(func.body))
        completed, open_paths = _expand_paths(items)
        paths = completed + (open_paths if exit_kind != "error" else [])
        # deduplicate while keeping a deterministic order
        unique: "dict[tuple[_Op, ...], None]" = {}
        for path in paths:
            unique.setdefault(path, None)
        return sorted(unique, key=lambda p: (len(p), [op.label() for op in p]))

    # -- statements ----------------------------------------------------------

    def _items(
        self, stmts: Sequence[ast.stmt]
    ) -> "tuple[list[object], str]":
        items: list[object] = []
        for stmt in stmts:
            if isinstance(stmt, ast.If):
                items += self._expr(stmt.test)
                then_items, then_exit = self._items(stmt.body)
                else_items, else_exit = self._items(stmt.orelse)
                if (
                    then_exit == "open"
                    and else_exit == "open"
                    and not _has_ops(then_items)
                    and not _has_ops(else_items)
                ):
                    continue  # pure control flow, no wire effect
                items.append(
                    _Branch([(then_items, then_exit), (else_items, else_exit)])
                )
                if then_exit != "open" and else_exit != "open":
                    ended = (
                        "return"
                        if "return" in (then_exit, else_exit)
                        else "error"
                    )
                    return items, ended
            elif isinstance(stmt, (ast.For, ast.AsyncFor, ast.While)):
                if isinstance(stmt, ast.While):
                    items += self._expr(stmt.test)
                else:
                    items += self._expr(stmt.iter)
                body_items, body_exit = self._items(stmt.body)
                if _has_ops(body_items) or body_exit != "open":
                    # inline zero-or-once: both sides of a count-prefixed
                    # loop agree whichever alternative is taken
                    items.append(
                        _Branch([(body_items, body_exit), ([], "open")])
                    )
                orelse_items, _orelse_exit = self._items(stmt.orelse)
                items += orelse_items
            elif isinstance(stmt, ast.Try):
                body_items, body_exit = self._items(stmt.body)
                items += body_items  # handlers are error paths: skipped
                orelse_items, orelse_exit = self._items(stmt.orelse)
                items += orelse_items
                final_items, final_exit = self._items(stmt.finalbody)
                items += final_items
                for ended in (body_exit, orelse_exit, final_exit):
                    if ended != "open":
                        return items, ended
            elif isinstance(stmt, (ast.With, ast.AsyncWith)):
                for item in stmt.items:
                    items += self._expr(item.context_expr)
                body_items, body_exit = self._items(stmt.body)
                items += body_items
                if body_exit != "open":
                    return items, body_exit
            elif isinstance(stmt, ast.Return):
                items += self._expr(stmt.value)
                return items, "return"
            elif isinstance(stmt, ast.Raise):
                return items, "error"
            elif isinstance(stmt, ast.Assign):
                items += self._assign(stmt)
            elif isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
                items += self._expr(stmt.value)
            elif isinstance(stmt, ast.Expr):
                items += self._expr(stmt.value)
            # nested defs/classes, imports, pass, break/continue:
            # no wire effect at this statement
        return items, "open"

    def _assign(self, stmt: ast.Assign) -> "list[object]":
        items = self._expr(stmt.value)
        # name a decode read after its whole-statement target:
        # ``kind = reader.byte()`` reads the field ``kind``
        if (
            len(stmt.targets) == 1
            and isinstance(stmt.targets[0], ast.Name)
            and isinstance(stmt.value, ast.Call)
            and items
            and isinstance(items[-1], _Op)
            and items[-1].kind == "prim"
            and items[-1].name is None
        ):
            last = items[-1]
            named = self._clean_field(stmt.targets[0].id)
            items[-1] = _Op(last.kind, last.detail, named, last.line)
        return items

    # -- expressions ---------------------------------------------------------

    def _per_element(self, body: "list[object]") -> "list[object]":
        """Zero-or-once wrap for comprehension bodies.

        A comprehension may iterate zero times, so its element ops get
        the same skip alternative a ``for`` body does — otherwise a
        write-side loop paired with a read-side comprehension would
        disagree about the empty-sequence path.
        """
        if not _has_ops(body):
            return body
        return [_Branch([(body, "open"), ([], "open")])]

    def _expr(self, expr: Optional[ast.expr]) -> "list[object]":
        if expr is None:
            return []
        if isinstance(expr, ast.Call):
            return self._call(expr)
        if isinstance(expr, ast.Lambda):
            return []  # not evaluated here
        if isinstance(expr, ast.IfExp):
            items = self._expr(expr.test)
            body_items = self._expr(expr.body)
            else_items = self._expr(expr.orelse)
            if _has_ops(body_items) or _has_ops(else_items):
                items.append(
                    _Branch([(body_items, "open"), (else_items, "open")])
                )
            return items
        if isinstance(expr, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
            items = []
            for gen in expr.generators:
                items += self._expr(gen.iter)
                for cond in gen.ifs:
                    items += self._expr(cond)
            return items + self._per_element(self._expr(expr.elt))
        if isinstance(expr, ast.DictComp):
            items = []
            for gen in expr.generators:
                items += self._expr(gen.iter)
                for cond in gen.ifs:
                    items += self._expr(cond)
            body = self._expr(expr.key) + self._expr(expr.value)
            return items + self._per_element(body)
        if isinstance(expr, ast.Compare):
            items = self._expr(expr.left)
            for comparator in expr.comparators:
                items += self._expr(comparator)
            magic = self._magic_operand(expr)
            if magic is not None:
                items.append(magic)
            return items
        if isinstance(expr, ast.BoolOp):
            items = []
            for value in expr.values:
                items += self._expr(value)
            return items
        items = []
        for child in ast.iter_child_nodes(expr):
            if isinstance(child, ast.expr):
                items += self._expr(child)
        return items

    def _call(self, call: ast.Call) -> "list[object]":
        items: list[object] = []
        if isinstance(call.func, ast.Attribute):
            items += self._expr(call.func.value)
        for arg in call.args:
            items += self._expr(arg)
        for keyword in call.keywords:
            items += self._expr(keyword.value)
        op = self._classify(call)
        if op is not None:
            items.append(op)
        return items

    def _classify(self, call: ast.Call) -> Optional[_Op]:
        func = call.func
        scope = self.scope
        if isinstance(func, ast.Attribute):
            attr = func.attr
            if attr in scope.primitives:
                name = (
                    self._field_name(call.args[0]) if call.args else None
                )
                return _Op("prim", attr, name, call.lineno)
            if attr in ("pack", "pack_into", "unpack", "unpack_from"):
                fmt = self._struct_fmt(func.value, call)
                if fmt is not None:
                    return _Op("struct", fmt, None, call.lineno)
            if attr == "raw" and len(call.args) == 1:
                magic = self._bytes_constant(call.args[0])
                if magic is not None:
                    return _Op("magic", magic, None, call.lineno)
                return None
            role = _codec_role(attr)
            if role is not None and isinstance(func.value, ast.Name):
                receiver = func.value.id
                if (
                    receiver in ("self", "cls")
                    and scope.cls is not None
                    and attr in scope.cls.methods
                ):
                    key = _pair_key(attr, scope.cls.name, scope.module.stem)
                    return _Op("pair", key, None, call.lineno)
                if receiver in scope.module.module_aliases:
                    key = _pair_key(attr, None, scope.module.stem)
                    return _Op("pair", key, None, call.lineno)
            return None
        if isinstance(func, ast.Name):
            role = _codec_role(func.id)
            if role is not None and (
                func.id in scope.module.functions
                or func.id in scope.module.symbol_aliases
            ):
                key = _pair_key(func.id, None, scope.module.stem)
                return _Op("pair", key, None, call.lineno)
        return None

    # -- leaf helpers --------------------------------------------------------

    def _clean_field(self, raw: str) -> Optional[str]:
        """A comparable field identifier, or ``None`` for non-fields."""
        if raw in self.scope.module.constants or raw.strip("_").isupper():
            return None  # module constant / tag byte, not a record field
        cleaned = raw.lstrip("_")
        return cleaned if cleaned else None

    def _field_name(self, arg: ast.expr) -> Optional[str]:
        if isinstance(arg, ast.Attribute):
            name = arg.attr
            if name.strip("_").isupper():
                return None
            stripped = name.lstrip("_")
            return stripped if stripped else None
        if isinstance(arg, ast.Name):
            return self._clean_field(arg.id)
        return None

    def _bytes_constant(self, expr: ast.expr) -> Optional[str]:
        if isinstance(expr, ast.Name):
            const = self.scope.module.constants.get(expr.id)
            if isinstance(const, ast.Constant) and isinstance(
                const.value, bytes
            ):
                return expr.id.lstrip("_")
        return None

    def _magic_operand(self, compare: ast.Compare) -> Optional[_Op]:
        for operand in [compare.left, *compare.comparators]:
            magic = self._bytes_constant(operand)
            if magic is not None:
                return _Op("magic", magic, None, compare.lineno)
        return None

    def _struct_fmt(
        self, receiver: ast.expr, call: ast.Call
    ) -> Optional[str]:
        """The struct format behind a pack/unpack call, if resolvable.

        Handles ``struct.pack(fmt, ...)`` (also under an import alias)
        and module-level ``_CONST = struct.Struct(fmt)`` receivers.
        Returns ``"?"`` when the receiver is struct-shaped but the
        format itself is not a literal, so both sides still count the
        op.
        """
        if not isinstance(receiver, ast.Name):
            return None
        module = self.scope.module
        if (
            receiver.id == "struct"
            or module.module_aliases.get(receiver.id) == "struct"
        ):
            if call.args:
                return self._fmt_literal(call.args[0]) or "?"
            return "?"
        const = module.constants.get(receiver.id)
        if isinstance(const, ast.Call):
            ctor = const.func
            is_struct_ctor = (
                isinstance(ctor, ast.Attribute) and ctor.attr == "Struct"
            ) or (isinstance(ctor, ast.Name) and ctor.id == "Struct")
            if is_struct_ctor and const.args:
                return self._fmt_literal(const.args[0]) or "?"
        return None

    @staticmethod
    def _fmt_literal(expr: ast.expr) -> Optional[str]:
        if isinstance(expr, ast.Constant) and isinstance(expr.value, str):
            return expr.value
        if isinstance(expr, ast.JoinedStr):
            parts = []
            for value in expr.values:
                if isinstance(value, ast.Constant):
                    parts.append(str(value.value))
                else:
                    parts.append("{}")  # width placeholder, e.g. f"<{n}I"
            return "".join(parts)
        return None


def _sig(path: "tuple[_Op, ...]") -> "tuple[tuple[str, str], ...]":
    return tuple((op.kind, op.detail) for op in path)


@dataclass
class _CodecSide:
    """One function's extracted paths for one role of a codec pair."""

    func_name: str
    lineno: int
    paths: "list[tuple[_Op, ...]]"

    @property
    def depth(self) -> int:
        return max((len(path) for path in self.paths), default=0)

    @property
    def moves_bytes(self) -> bool:
        return self.depth > 0

    def signatures(self) -> "dict[tuple[tuple[str, str], ...], tuple[_Op, ...]]":
        table: "dict[tuple[tuple[str, str], ...], tuple[_Op, ...]]" = {}
        for path in self.paths:
            table.setdefault(_sig(path), path)
        return table

    def field_names(self) -> set[str]:
        return {
            op.name
            for path in self.paths
            for op in path
            if op.name is not None
        }


@register
class CodecSymmetryRule(ProjectRule):
    """IPD009: encode/decode twins must mirror each other's wire ops."""

    code = "IPD009"
    name = "codec-symmetry"
    invariant = (
        "every write-side codec function in the codec modules has a "
        "decode twin whose primitive read sequence mirrors the writes "
        "in order, field and struct width on every wire path (static "
        "twin of the IPD004 fingerprint pin)"
    )
    #: module stems the pairing applies to (the wire-format modules)
    codec_module_stems: "tuple[str, ...]" = ("statecodec", "lpm")

    def check_project(self, graph: ProjectGraph) -> Iterator[Finding]:
        primitives = _discover_primitives(graph)
        for module in graph.modules_with_stem(self.codec_module_stems):
            yield from self._check_module(module, primitives)

    def _check_module(
        self, module: ModuleInfo, primitives: frozenset[str]
    ) -> Iterator[Finding]:
        groups: "dict[str, dict[str, list[_CodecSide]]]" = {}
        for func, cls in _functions_of(module):
            role = _codec_role(func.name)
            if role is None:
                continue
            scope = _CodecScope(module=module, cls=cls, primitives=primitives)
            paths = _OpExtractor(scope).extract_paths(func)
            key = _pair_key(
                func.name, cls.name if cls is not None else None, module.stem
            )
            group = groups.setdefault(key, {"enc": [], "dec": []})
            group[role].append(_CodecSide(func.name, func.lineno, paths))
        for key in sorted(groups):
            encoders = groups[key]["enc"]
            decoders = groups[key]["dec"]
            if encoders and decoders:
                # compare the canonical (deepest) side of each role:
                # wrappers delegate via pair ops and stay shallow
                encoder = max(encoders, key=lambda side: side.depth)
                decoder = max(decoders, key=lambda side: side.depth)
                yield from self._compare(module, key, encoder, decoder)
                continue
            missing = "decode" if encoders else "encode"
            for side in encoders or decoders:
                if side.moves_bytes:
                    yield Finding(
                        rule=self.code,
                        path=module.source.display_path,
                        line=side.lineno,
                        col=1,
                        message=(
                            f"codec function {side.func_name} moves wire "
                            f"bytes but has no {missing}-side counterpart "
                            f"(pair key {key!r}) in {module.stem}.py"
                        ),
                    )

    def _compare(
        self,
        module: ModuleInfo,
        key: str,
        encoder: _CodecSide,
        decoder: _CodecSide,
    ) -> Iterator[Finding]:
        """One finding per pair, at the first divergence found.

        Structural check first: every encode path's op signature must
        appear among the decode paths and vice versa.  Then a
        field-name drift check on the matched paths — a one-off rename
        is tolerated, a *swap* (the twin field occurs elsewhere on the
        other side) is not.
        """
        pair = f"{encoder.func_name}/{decoder.func_name}"
        enc_sigs = encoder.signatures()
        dec_sigs = decoder.signatures()
        for sigs, against, side_name, other_name in (
            (enc_sigs, dec_sigs, "encode", "decode"),
            (dec_sigs, enc_sigs, "decode", "encode"),
        ):
            for sig in sorted(sigs):
                if sig in against:
                    continue
                path = sigs[sig]
                yield self._divergence_finding(
                    module, pair, key, side_name, other_name, path, against
                )
                return
        enc_fields = encoder.field_names()
        dec_fields = decoder.field_names()
        for sig in sorted(enc_sigs):
            enc_path = enc_sigs[sig]
            dec_path = dec_sigs[sig]
            for index, (enc, dec) in enumerate(
                zip(enc_path, dec_path), start=1
            ):
                if (
                    enc.kind == "prim"
                    and enc.name is not None
                    and dec.name is not None
                    and enc.name != dec.name
                    and (enc.name in dec_fields or dec.name in enc_fields)
                ):
                    yield Finding(
                        rule=self.code,
                        path=module.source.display_path,
                        line=enc.line,
                        col=1,
                        message=(
                            f"codec pair {pair} ({key}): field order "
                            f"drift at wire op {index} — encode writes "
                            f"{enc.detail}({enc.name}) where decode reads "
                            f"{dec.detail}({dec.name}), and the twin "
                            "field appears elsewhere in the sequence"
                        ),
                    )
                    return

    def _divergence_finding(
        self,
        module: ModuleInfo,
        pair: str,
        key: str,
        side_name: str,
        other_name: str,
        path: "tuple[_Op, ...]",
        against: "dict[tuple[tuple[str, str], ...], tuple[_Op, ...]]",
    ) -> Finding:
        sig = _sig(path)
        best: "Optional[tuple[_Op, ...]]" = None
        best_common = -1
        for other_sig, other_path in sorted(against.items()):
            common = 0
            for left, right in zip(sig, other_sig):
                if left != right:
                    break
                common += 1
            if common > best_common or (
                common == best_common
                and best is not None
                and abs(len(other_sig) - len(sig)) < abs(len(best) - len(sig))
            ):
                best_common = common
                best = other_path
        at = min(best_common, len(path) - 1) if path else 0
        anchor = path[at] if path else None
        line = anchor.line if anchor is not None else 1
        if best is None:
            detail = f"{other_name} side has no wire paths at all"
        elif best_common >= len(path):
            extra = best[len(path)]
            detail = (
                f"the closest {other_name} path continues with "
                f"{extra.label()} after op {len(path)}"
            )
        elif best_common < len(best):
            detail = (
                f"op {best_common + 1} is {path[best_common].label()} here "
                f"but {best[best_common].label()} on the closest "
                f"{other_name} path"
            )
        else:
            detail = (
                f"the closest {other_name} path ends after op "
                f"{best_common} before {path[best_common].label()}"
            )
        return Finding(
            rule=self.code,
            path=module.source.display_path,
            line=line,
            col=1,
            message=(
                f"codec pair {pair} ({key}): a {side_name} wire path has "
                f"no mirror on the {other_name} side — {detail}"
            ),
        )


# ---------------------------------------------------------------------------
# IPD010 — iteration-order taint
# ---------------------------------------------------------------------------

#: builtins whose result no longer depends on iteration order
_ORDER_SANITIZERS = frozenset({"sorted", "min", "max", "sum", "len", "any", "all"})
_SET_FACTORIES = frozenset({"set", "frozenset"})
#: set methods returning another (still unordered) set
_SET_METHODS = frozenset(
    {"copy", "union", "intersection", "difference", "symmetric_difference"}
)
#: attribute-call sinks beyond the writer primitives and enc-role names
_SINK_ATTRS = frozenset({"writerow", "writerows", "pack", "pack_into"})

_TaintState = "dict[str, frozenset[str]]"
_SET = frozenset({"set"})
_TAINT = frozenset({"taint"})


class _TaintAnalysis(ForwardAnalysis["dict[str, frozenset[str]]"]):
    """May-analysis: which locals hold a set / an order-tainted value."""

    def __init__(
        self,
        set_attrs: frozenset[str],
        set_callables: frozenset[str],
        set_params: frozenset[str],
    ) -> None:
        self.set_attrs = set_attrs
        self.set_callables = set_callables
        self.set_params = set_params

    def initial_state(self) -> "dict[str, frozenset[str]]":
        return {param: _SET for param in self.set_params}

    def join(
        self,
        left: "dict[str, frozenset[str]]",
        right: "dict[str, frozenset[str]]",
    ) -> "dict[str, frozenset[str]]":
        merged = dict(left)
        for var, facts in right.items():
            merged[var] = merged.get(var, frozenset()) | facts
        return merged

    def transfer(
        self, state: "dict[str, frozenset[str]]", stmt: ast.stmt
    ) -> "dict[str, frozenset[str]]":
        if (
            isinstance(stmt, ast.Assign)
            and len(stmt.targets) == 1
            and isinstance(stmt.targets[0], ast.Name)
        ):
            return self._bind(
                state, stmt.targets[0].id, self.expr_facts(state, stmt.value)
            )
        if isinstance(stmt, ast.AnnAssign) and isinstance(
            stmt.target, ast.Name
        ):
            facts = (
                self.expr_facts(state, stmt.value)
                if stmt.value is not None
                else frozenset()
            )
            if _annotation_is_set(stmt.annotation):
                facts |= _SET
            return self._bind(state, stmt.target.id, facts)
        if isinstance(stmt, ast.AugAssign) and isinstance(
            stmt.target, ast.Name
        ):
            facts = state.get(stmt.target.id, frozenset()) | self.expr_facts(
                state, stmt.value
            )
            return self._bind(state, stmt.target.id, facts)
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            iter_facts = self.expr_facts(state, stmt.iter)
            element = _TAINT if iter_facts & (_SET | _TAINT) else frozenset()
            new = dict(state)
            for name in _assigned_names(stmt.target):
                if element:
                    new[name] = element
                else:
                    new.pop(name, None)
            return new
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            new = dict(state)
            for item in stmt.items:
                if item.optional_vars is not None:
                    for name in _assigned_names(item.optional_vars):
                        new.pop(name, None)
            return new
        return state

    @staticmethod
    def _bind(
        state: "dict[str, frozenset[str]]", var: str, facts: frozenset[str]
    ) -> "dict[str, frozenset[str]]":
        new = dict(state)
        if facts:
            new[var] = facts
        else:
            new.pop(var, None)
        return new

    # -- abstract evaluation -------------------------------------------------

    def expr_facts(
        self, state: "dict[str, frozenset[str]]", expr: Optional[ast.expr]
    ) -> frozenset[str]:
        if expr is None or isinstance(expr, (ast.Constant, ast.Lambda)):
            return frozenset()
        if isinstance(expr, ast.Name):
            return state.get(expr.id, frozenset())
        if isinstance(expr, ast.Attribute):
            facts = self.expr_facts(state, expr.value) & _TAINT
            if expr.attr in self.set_attrs:
                facts |= _SET
            return facts
        if isinstance(expr, (ast.Set, ast.SetComp)):
            return _SET
        if isinstance(expr, ast.Call):
            return self._call_facts(state, expr)
        if isinstance(expr, (ast.ListComp, ast.GeneratorExp, ast.DictComp)):
            facts: frozenset[str] = frozenset()
            for gen in expr.generators:
                if self.expr_facts(state, gen.iter) & (_SET | _TAINT):
                    facts |= _TAINT
            if isinstance(expr, ast.DictComp):
                inner = self.expr_facts(state, expr.key) | self.expr_facts(
                    state, expr.value
                )
            else:
                inner = self.expr_facts(state, expr.elt)
            return facts | (inner & _TAINT)
        if isinstance(expr, ast.BinOp):
            return self.expr_facts(state, expr.left) | self.expr_facts(
                state, expr.right
            )
        if isinstance(expr, ast.BoolOp):
            out: frozenset[str] = frozenset()
            for value in expr.values:
                out |= self.expr_facts(state, value)
            return out
        if isinstance(expr, ast.IfExp):
            return (self.expr_facts(state, expr.test) & _TAINT) | (
                self.expr_facts(state, expr.body)
                | self.expr_facts(state, expr.orelse)
            )
        if isinstance(expr, (ast.Tuple, ast.List)):
            out = frozenset()
            for elt in expr.elts:
                out |= self.expr_facts(state, elt)
            return out & _TAINT
        if isinstance(expr, ast.Subscript):
            # an element of a tainted container is tainted; sets are
            # not subscriptable so the set fact does not pass through
            return self.expr_facts(state, expr.value) & _TAINT
        if isinstance(expr, ast.Starred):
            return self.expr_facts(state, expr.value)
        if isinstance(expr, ast.Compare):
            return frozenset()  # booleans carry no order
        if isinstance(expr, ast.UnaryOp):
            return self.expr_facts(state, expr.operand) & _TAINT
        out = frozenset()
        for child in ast.iter_child_nodes(expr):
            if isinstance(child, ast.expr):
                out |= self.expr_facts(state, child) & _TAINT
        return out

    def _call_facts(
        self, state: "dict[str, frozenset[str]]", call: ast.Call
    ) -> frozenset[str]:
        func = call.func
        if isinstance(func, ast.Name):
            if func.id in _ORDER_SANITIZERS:
                return frozenset()
            if func.id in _SET_FACTORIES:
                return _SET
            if func.id in self.set_callables:
                return _SET
        if isinstance(func, ast.Attribute):
            if func.attr in self.set_callables:
                return _SET
            receiver = self.expr_facts(state, func.value)
            if _SET <= receiver and func.attr in _SET_METHODS:
                return _SET
        # generic call: materializing or transforming an unordered value
        # yields an order-dependent result (``list(s)``, ``",".join(s)``)
        collected: frozenset[str] = frozenset()
        if isinstance(func, ast.Attribute):
            collected |= self.expr_facts(state, func.value)
        for arg in call.args:
            collected |= self.expr_facts(state, arg)
        for keyword in call.keywords:
            collected |= self.expr_facts(state, keyword.value)
        if collected & (_SET | _TAINT):
            return _TAINT
        return frozenset()


@register
class IterationOrderTaintRule(ProjectRule):
    """IPD010: unordered iteration must not feed serialized output."""

    code = "IPD010"
    name = "iteration-order-taint"
    invariant = (
        "a value drawn from set/frozenset iteration passes through an "
        "order-fixing step (sorted() or equivalent) before it reaches "
        "codec output, snapshot records, or CSV/archive writes"
    )

    def check_project(self, graph: ProjectGraph) -> Iterator[Finding]:
        set_attrs = frozenset(graph.set_attr_names())
        set_callables = frozenset(graph.set_returning_callables())
        primitives = _discover_primitives(graph)
        for module in graph.modules:
            for func, _cls in _functions_of(module):
                yield from self._check_function(
                    module, func, set_attrs, set_callables, primitives
                )

    def _check_function(
        self,
        module: ModuleInfo,
        func: "ast.FunctionDef | ast.AsyncFunctionDef",
        set_attrs: frozenset[str],
        set_callables: frozenset[str],
        primitives: frozenset[str],
    ) -> Iterator[Finding]:
        args = func.args
        all_args = [
            *args.posonlyargs,
            *args.args,
            *args.kwonlyargs,
            *([args.vararg] if args.vararg else []),
            *([args.kwarg] if args.kwarg else []),
        ]
        set_params = frozenset(
            arg.arg for arg in all_args if _annotation_is_set(arg.annotation)
        )
        analysis = _TaintAnalysis(set_attrs, set_callables, set_params)
        cfg = build_cfg(func)
        states = analysis.entry_states(cfg)
        flagged: set[int] = set()
        for state, stmt in analysis.replay(cfg, states):
            for expr in header_exprs(stmt):
                for call in self._sink_calls(expr, primitives):
                    if call.lineno in flagged:
                        continue
                    for arg in [
                        *call.args,
                        *[keyword.value for keyword in call.keywords],
                    ]:
                        facts = analysis.expr_facts(state, arg)
                        if facts & (_TAINT | _SET):
                            flagged.add(call.lineno)
                            yield Finding(
                                rule=self.code,
                                path=module.source.display_path,
                                line=call.lineno,
                                col=call.col_offset + 1,
                                message=(
                                    "iteration-order-dependent value "
                                    f"reaches serialized output via "
                                    f"{self._call_label(call)}(); fix the "
                                    "order (sorted(...)) before it is "
                                    "written"
                                ),
                            )
                            break

    @staticmethod
    def _sink_calls(
        expr: ast.expr, primitives: frozenset[str]
    ) -> Iterator[ast.Call]:
        for node in ast.walk(expr):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Attribute):
                if (
                    func.attr in _SINK_ATTRS
                    or func.attr in primitives
                    or _codec_role(func.attr) == "enc"
                ):
                    yield node
            elif isinstance(func, ast.Name):
                if _codec_role(func.id) == "enc":
                    yield node

    @staticmethod
    def _call_label(call: ast.Call) -> str:
        func = call.func
        if isinstance(func, ast.Attribute):
            return func.attr
        if isinstance(func, ast.Name):
            return func.id
        return "<call>"


# ---------------------------------------------------------------------------
# IPD011 — executor state discipline
# ---------------------------------------------------------------------------


@register
class ExecutorStateDisciplineRule(ProjectRule):
    """IPD011: parent-side code talks to workers only via the protocol."""

    code = "IPD011"
    name = "executor-state-discipline"
    invariant = (
        "executor methods never reach through a worker handle into "
        "worker-owned engine state; shard state crosses the boundary "
        "only via the op/FIFO protocol methods"
    )
    #: module stems that host the executor data plane
    executor_module_stems: "tuple[str, ...]" = ("executors",)
    #: class names whose instances are worker-side state owners
    worker_class_names: "tuple[str, ...]" = ("ShardWorker",)
    #: the sanctioned protocol surface on a worker handle
    worker_protocol: "tuple[str, ...]" = ("handle",)

    def check_project(self, graph: ProjectGraph) -> Iterator[Finding]:
        for module in graph.modules_with_stem(self.executor_module_stems):
            for cls in module.classes.values():
                if not cls.name.endswith("Executor"):
                    continue
                handles = self._worker_handles(cls, module, graph)
                if not handles:
                    continue
                yield from self._check_class(module, cls, handles)

    def _worker_handles(
        self, cls: ClassInfo, module: ModuleInfo, graph: ProjectGraph
    ) -> "dict[str, str]":
        """``self`` attributes of *cls* holding a worker instance."""
        handles: dict[str, str] = {}
        init = cls.methods.get("__init__")
        if init is None:
            return handles
        wanted = set(self.worker_class_names)
        for node in ast.walk(init):
            if not (
                isinstance(node, ast.Assign)
                and isinstance(node.value, ast.Call)
            ):
                continue
            ctor = node.value.func
            ctor_name: Optional[str] = None
            if isinstance(ctor, ast.Name):
                ctor_name = ctor.id
            elif isinstance(ctor, ast.Attribute):
                ctor_name = ctor.attr
            if ctor_name is None:
                continue
            resolved = graph.resolve_class(module, ctor_name)
            names = (
                graph.ancestry(resolved)
                if resolved is not None
                else {ctor_name}
            )
            if not (names & wanted):
                continue
            for target in node.targets:
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    handles[target.attr] = ctor_name
        return handles

    def _check_class(
        self, module: ModuleInfo, cls: ClassInfo, handles: "dict[str, str]"
    ) -> Iterator[Finding]:
        protocol = set(self.worker_protocol)
        for method_name, method in cls.methods.items():
            for node in ast.walk(method):
                if not (
                    isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Attribute)
                ):
                    continue
                inner = node.value
                if not (
                    isinstance(inner.value, ast.Name)
                    and inner.value.id == "self"
                    and inner.attr in handles
                ):
                    continue
                if node.attr in protocol:
                    continue
                yield Finding(
                    rule=self.code,
                    path=module.source.display_path,
                    line=node.lineno,
                    col=node.col_offset + 1,
                    message=(
                        f"{cls.name}.{method_name} reaches into worker "
                        f"state self.{inner.attr}.{node.attr} "
                        f"({handles[inner.attr]}) from the parent side; "
                        "shard state crosses the executor boundary only "
                        f"via the protocol ({', '.join(sorted(protocol))})"
                    ),
                )


# ---------------------------------------------------------------------------
# IPD012 — lifecycle typestate
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Lifecycle:
    """Once-only and closed-forbidden method sets of one resource class."""

    once: frozenset[str]
    use: frozenset[str]
    closers: frozenset[str]


_LIFECYCLE_PROTOCOLS: "dict[str, _Lifecycle]" = {
    "Sink": _Lifecycle(
        once=frozenset({"close"}),
        use=frozenset({"emit"}),
        closers=frozenset({"close"}),
    ),
    "CheckpointStore": _Lifecycle(
        once=frozenset({"close"}),
        use=frozenset(
            {
                "save",
                "load",
                "latest",
                "latest_valid",
                "restore_engine",
                "list",
            }
        ),
        closers=frozenset({"close"}),
    ),
    "Pipeline": _Lifecycle(
        once=frozenset({"close"}),
        use=frozenset({"run", "run_incremental"}),
        closers=frozenset({"close"}),
    ),
    "LivePipeline": _Lifecycle(
        once=frozenset({"start", "close"}),
        use=frozenset({"submit", "submit_batch", "start", "stop"}),
        closers=frozenset({"close"}),
    ),
}

_LifeState = "dict[str, tuple[str, frozenset[str]]]"


def _escaping_names(stmt: ast.stmt) -> set[str]:
    """Variables whose value leaves local control at this statement."""
    names: set[str] = set()
    for expr in header_exprs(stmt):
        for node in ast.walk(expr):
            if isinstance(node, ast.Call):
                for arg in node.args:
                    if isinstance(arg, ast.Name):
                        names.add(arg.id)
                    elif isinstance(arg, ast.Starred) and isinstance(
                        arg.value, ast.Name
                    ):
                        names.add(arg.value.id)
                for keyword in node.keywords:
                    if isinstance(keyword.value, ast.Name):
                        names.add(keyword.value.id)
            elif isinstance(node, (ast.Yield, ast.YieldFrom, ast.Await)):
                value = node.value
                if isinstance(value, ast.Name):
                    names.add(value.id)
    if isinstance(stmt, ast.Return) and isinstance(stmt.value, ast.Name):
        names.add(stmt.value.id)
    if isinstance(stmt, ast.Assign):
        if isinstance(stmt.value, ast.Name):
            names.add(stmt.value.id)  # aliasing: both names now point at it
        elif isinstance(stmt.value, (ast.Tuple, ast.List)):
            for elt in stmt.value.elts:
                if isinstance(elt, ast.Name):
                    names.add(elt.id)
    return names


class _LifecycleAnalysis(
    ForwardAnalysis["dict[str, tuple[str, frozenset[str]]]"]
):
    """Must-analysis: locals definitely holding a live resource, with the
    set of once-methods already called on *every* path."""

    def __init__(self, resolve_protocol: "object") -> None:
        # a callable (ctor expr) -> Optional[str]; kept untyped at the
        # attribute to avoid a self-referential callback protocol
        self._resolve_protocol = resolve_protocol

    def ctor_protocol(self, expr: ast.expr) -> Optional[str]:
        resolver = self._resolve_protocol
        result = resolver(expr)  # type: ignore[operator]
        return result if isinstance(result, str) or result is None else None

    def initial_state(self) -> "dict[str, tuple[str, frozenset[str]]]":
        return {}

    def join(
        self,
        left: "dict[str, tuple[str, frozenset[str]]]",
        right: "dict[str, tuple[str, frozenset[str]]]",
    ) -> "dict[str, tuple[str, frozenset[str]]]":
        merged: dict[str, tuple[str, frozenset[str]]] = {}
        for var, (proto, called) in left.items():
            other = right.get(var)
            if other is not None and other[0] == proto:
                merged[var] = (proto, called & other[1])
        return merged

    def transfer(
        self,
        state: "dict[str, tuple[str, frozenset[str]]]",
        stmt: ast.stmt,
    ) -> "dict[str, tuple[str, frozenset[str]]]":
        new = dict(state)
        for name in _escaping_names(stmt):
            new.pop(name, None)
        for var, method in _receiver_calls(stmt, state):
            entry = new.get(var)
            if entry is None:
                continue
            proto, called = entry
            spec = _LIFECYCLE_PROTOCOLS[proto]
            if method in spec.once:
                new[var] = (proto, called | {method})
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                if item.optional_vars is not None:
                    for name in _assigned_names(item.optional_vars):
                        new.pop(name, None)  # __exit__ owns the lifecycle
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            for name in _assigned_names(stmt.target):
                new.pop(name, None)
        if (
            isinstance(stmt, ast.Assign)
            and len(stmt.targets) == 1
            and isinstance(stmt.targets[0], ast.Name)
        ):
            var = stmt.targets[0].id
            proto = self.ctor_protocol(stmt.value)
            if proto is not None:
                new[var] = (proto, frozenset())
            else:
                new.pop(var, None)
        return new


def _receiver_calls(
    stmt: ast.stmt, state: "dict[str, tuple[str, frozenset[str]]]"
) -> "Iterator[tuple[str, str]]":
    """``(var, method)`` for each tracked-receiver method call here."""
    for expr in header_exprs(stmt):
        for node in ast.walk(expr):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id in state
            ):
                yield node.func.value.id, node.func.attr


@register
class LifecycleTypestateRule(ProjectRule):
    """IPD012: close-exactly-once / no use after close, path-sensitively."""

    code = "IPD012"
    name = "lifecycle-typestate"
    invariant = (
        "runtime resources (Sink, CheckpointStore, Pipeline, "
        "LivePipeline) are closed exactly once and never used after "
        "close on any path; LivePipeline.start() runs at most once"
    )

    def check_project(self, graph: ProjectGraph) -> Iterator[Finding]:
        for module in graph.modules:
            for func, cls in _functions_of(module):
                yield from self._check_function(graph, module, func, cls)

    def _check_function(
        self,
        graph: ProjectGraph,
        module: ModuleInfo,
        func: "ast.FunctionDef | ast.AsyncFunctionDef",
        cls: Optional[ClassInfo],
    ) -> Iterator[Finding]:
        def resolve(expr: ast.expr) -> Optional[str]:
            return self._ctor_protocol(graph, module, expr)

        analysis = _LifecycleAnalysis(resolve)
        cfg = build_cfg(func)
        states = analysis.entry_states(cfg)
        flagged: set[tuple[int, str]] = set()
        for state, stmt in analysis.replay(cfg, states):
            for expr in header_exprs(stmt):
                for node in ast.walk(expr):
                    if not (
                        isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)
                        and isinstance(node.func.value, ast.Name)
                    ):
                        continue
                    var = node.func.value.id
                    entry = state.get(var)
                    if entry is None:
                        continue
                    proto, called = entry
                    spec = _LIFECYCLE_PROTOCOLS[proto]
                    method = node.func.attr
                    mark = (node.lineno, f"{var}.{method}")
                    if mark in flagged:
                        continue
                    if method in spec.once and method in called:
                        flagged.add(mark)
                        yield Finding(
                            rule=self.code,
                            path=module.source.display_path,
                            line=node.lineno,
                            col=node.col_offset + 1,
                            message=(
                                f"{var}.{method}() runs again on a path "
                                f"where {proto}.{method}() already ran — "
                                f"{method} is exactly-once in the "
                                f"{proto} lifecycle"
                            ),
                        )
                    elif method in spec.use and called & spec.closers:
                        flagged.add(mark)
                        yield Finding(
                            rule=self.code,
                            path=module.source.display_path,
                            line=node.lineno,
                            col=node.col_offset + 1,
                            message=(
                                f"{var}.{method}() after close() — the "
                                f"{proto} lifecycle forbids use after "
                                "close"
                            ),
                        )

    def _ctor_protocol(
        self, graph: ProjectGraph, module: ModuleInfo, expr: ast.expr
    ) -> Optional[str]:
        """The lifecycle protocol a constructor expression produces."""
        if not isinstance(expr, ast.Call):
            return None
        func = expr.func
        if isinstance(func, ast.Name):
            return self._class_protocol(graph, module, func.id)
        if isinstance(func, ast.Attribute) and isinstance(
            func.value, ast.Name
        ):
            # classmethod constructors: Pipeline.resume(...), etc.
            proto = self._class_protocol(graph, module, func.value.id)
            if proto is not None and self._is_classmethod(
                graph, module, func.value.id, func.attr
            ):
                return proto
        return None

    @staticmethod
    def _class_protocol(
        graph: ProjectGraph, module: ModuleInfo, name: str
    ) -> Optional[str]:
        resolved = graph.resolve_class(module, name)
        if resolved is not None:
            names = graph.ancestry(resolved)
            hits = names & _LIFECYCLE_PROTOCOLS.keys()
            if not hits:
                return None
            if resolved.name in hits:
                return resolved.name
            return sorted(hits)[0]
        if name in _LIFECYCLE_PROTOCOLS:
            return name  # imported from outside the scanned set
        return None

    @staticmethod
    def _is_classmethod(
        graph: ProjectGraph, module: ModuleInfo, cls_name: str, method: str
    ) -> bool:
        resolved = graph.resolve_class(module, cls_name)
        if resolved is None:
            return False
        node = resolved.methods.get(method)
        if node is None:
            return False
        for decorator in node.decorator_list:
            target = decorator
            if isinstance(target, ast.Name) and target.id == "classmethod":
                return True
        return False
