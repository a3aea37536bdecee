"""Framework behaviour: suppression, selection, registry, reports."""

import ast
from pathlib import Path

import pytest

from repro.devtools.framework import (
    ContextVisitor,
    Finding,
    SourceFile,
    build_rules,
    lint_paths,
    registered_rules,
)
from repro.devtools.lint import run_lint
from repro.devtools.markers import hot_path

FIXTURES = Path(__file__).parent / "fixtures"

ALL_CODES = [
    "IPD001", "IPD002", "IPD003", "IPD004", "IPD005", "IPD007",
    "IPD008",
]


def test_registry_holds_all_rules():
    build_rules()  # importing the rules module populates the registry
    assert sorted(registered_rules()) == ALL_CODES


def test_build_rules_rejects_unknown_codes():
    with pytest.raises(ValueError, match="unknown rule code"):
        build_rules(["IPD999"])


def test_build_rules_applies_config_to_declaring_rules(tmp_path):
    pins = tmp_path / "pins.json"
    rules = build_rules(["IPD004", "IPD001"], codec_pins=pins)
    by_code = {rule.code: rule for rule in rules}
    assert by_code["IPD004"].codec_pins == pins
    assert not hasattr(by_code["IPD001"], "codec_pins")


def test_select_is_case_insensitive():
    rules = build_rules(["ipd001"])
    assert [rule.code for rule in rules] == ["IPD001"]


def test_line_scoped_suppression():
    report = run_lint([str(FIXTURES / "suppressed.py")], select=["IPD001"])
    # disable=IPD001 and disable=all each silence one; the wrong-code
    # comment on the last line does not
    assert len(report.findings) == 1
    assert report.suppressed == 2
    assert "still_fires" in _line_of(report.findings[0])


def _line_of(finding: Finding) -> str:
    path = Path(finding.path)
    if not path.is_absolute():
        path = Path.cwd() / path
    return path.read_text(encoding="utf-8").splitlines()[finding.line - 2]


def test_syntax_error_becomes_ipd000_finding(tmp_path):
    bad = tmp_path / "broken.py"
    bad.write_text("def oops(:\n", encoding="utf-8")
    report = lint_paths([bad])
    assert len(report.findings) == 1
    assert report.findings[0].rule == "IPD000"
    assert "does not parse" in report.findings[0].message


def test_report_to_dict_shape():
    report = run_lint([str(FIXTURES / "ipd001_fires.py")], select=["IPD001"])
    payload = report.to_dict()
    assert payload["clean"] is False
    assert payload["files_scanned"] == 1
    assert payload["counts"] == {"IPD001": len(report.findings)}
    first = payload["findings"][0]
    assert set(first) == {"rule", "path", "line", "col", "message"}


def test_finding_format_is_path_line_col_code():
    finding = Finding(rule="IPD001", path="a.py", line=3, col=7, message="x")
    assert finding.format() == "a.py:3:7: IPD001 x"


def test_findings_sorted_by_location():
    report = run_lint([str(FIXTURES)], select=["IPD001", "IPD002"])
    keys = [finding.sort_key() for finding in report.findings]
    assert keys == sorted(keys)


def test_hot_path_marker_is_identity():
    def probe(x: int) -> int:
        return x + 1

    marked = hot_path(probe)
    assert marked is probe  # no wrapper, no overhead
    assert marked(1) == 2
    # the ledger measures *through* the marker, so the marked engine
    # entry points must be the plain functions, not wrappers
    from repro.core.algorithm import IPD

    for method in (IPD.ingest, IPD.ingest_batch, IPD.sweep):
        assert method.__qualname__ == f"IPD.{method.__name__}"
        assert not hasattr(method, "__wrapped__")


def test_missing_path_raises():
    with pytest.raises(FileNotFoundError):
        lint_paths([FIXTURES / "does_not_exist"])


# -- ContextVisitor nesting: hot-path context must not leak ------------------


def _contexts(tmp_path, code):
    """Map each ``mark("label")`` call site to (is_hot, loop_depth)."""
    src = tmp_path / "probe.py"
    src.write_text(code, encoding="utf-8")
    source = SourceFile(src, tmp_path)
    rule = build_rules(["IPD001"])[0]
    seen = {}

    class Probe(ContextVisitor):
        def visit_Call(self, node):
            if isinstance(node.func, ast.Name) and node.func.id == "mark":
                label = node.args[0].value
                seen[label] = (self.hot_depth > 0, self.loop_depth)
            self.generic_visit(node)

    Probe(rule, source).visit(source.tree)
    return seen


def test_nested_def_inside_hot_path_is_not_hot(tmp_path):
    seen = _contexts(
        tmp_path,
        "@hot_path\n"
        "def outer():\n"
        "    mark('hot-body')\n"
        "    def inner():\n"
        "        mark('nested')\n"
        "    mark('hot-after')\n",
    )
    assert seen["hot-body"] == (True, 0)
    assert seen["nested"] == (False, 0)
    # context is restored once the nested scope closes
    assert seen["hot-after"] == (True, 0)


def test_nested_def_with_own_marker_is_hot(tmp_path):
    seen = _contexts(
        tmp_path,
        "@hot_path\n"
        "def outer():\n"
        "    @hot_path\n"
        "    def inner():\n"
        "        mark('nested-hot')\n",
    )
    assert seen["nested-hot"] == (True, 0)


def test_lambda_inside_hot_loop_resets_context(tmp_path):
    seen = _contexts(
        tmp_path,
        "@hot_path\n"
        "def outer(xs):\n"
        "    for x in xs:\n"
        "        mark('loop-body')\n"
        "        f = lambda y: mark('lambda-body')\n"
        "        mark('loop-after')\n",
    )
    assert seen["loop-body"] == (True, 1)
    assert seen["lambda-body"] == (False, 0)
    assert seen["loop-after"] == (True, 1)


def test_async_def_tracks_hot_context(tmp_path):
    seen = _contexts(
        tmp_path,
        "@hot_path\n"
        "async def outer():\n"
        "    mark('async-hot')\n"
        "    async def inner():\n"
        "        mark('async-nested')\n",
    )
    assert seen["async-hot"] == (True, 0)
    assert seen["async-nested"] == (False, 0)


def test_hot_marker_attribute_form_counts(tmp_path):
    seen = _contexts(
        tmp_path,
        "@markers.hot_path\n"
        "def outer():\n"
        "    mark('attr-hot')\n",
    )
    assert seen["attr-hot"] == (True, 0)
