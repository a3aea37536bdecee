"""Fires / does-not-fire fixture pair per lint rule (IPD001–IPD005,
IPD007, IPD008).

Each rule is exercised in isolation (``select=[code]``) against a
fixture that must trip it and one that must not, so a rule that stops
firing — or starts over-firing — fails here before it rots in CI.
"""

from pathlib import Path

import pytest

from repro.devtools.lint import run_lint

FIXTURES = Path(__file__).parent / "fixtures"

#: (rule, fires fixture, expected finding count, clean fixture)
_PAIRS = [
    ("IPD001", FIXTURES / "ipd001_fires.py", 7, FIXTURES / "ipd001_clean.py"),
    ("IPD002", FIXTURES / "ipd002_fires.py", 4, FIXTURES / "ipd002_clean.py"),
    ("IPD005", FIXTURES / "ipd005_fires.py", 3, FIXTURES / "ipd005_clean.py"),
    ("IPD007", FIXTURES / "ipd007_fires.py", 4, FIXTURES / "ipd007_clean.py"),
    ("IPD008", FIXTURES / "ipd008_fires.py", 4, FIXTURES / "ipd008_clean.py"),
]


@pytest.mark.parametrize(
    "code,fires,count,clean",
    _PAIRS,
    ids=[pair[0] for pair in _PAIRS],
)
def test_rule_fires_and_stays_quiet(code, fires, count, clean):
    report = run_lint([str(fires)], select=[code])
    assert len(report.findings) == count
    assert {finding.rule for finding in report.findings} == {code}

    report = run_lint([str(clean)], select=[code])
    assert report.clean, [f.format() for f in report.findings]


def test_ipd003_fires_inside_runtime_scope():
    # lint the directory so relative paths carry the runtime/ component
    report = run_lint([str(FIXTURES / "ipd003")], select=["IPD003"])
    assert len(report.findings) == 3
    assert all(f.rule == "IPD003" for f in report.findings)
    assert all("fires.py" in f.path for f in report.findings)


def test_ipd003_clean_file_in_scope():
    # scan the runtime/ dir (so clean.py is in scope) and check that the
    # typed raises and re-raising broad handler produce nothing
    report = run_lint([str(FIXTURES / "ipd003" / "runtime")], select=["IPD003"])
    clean_findings = [f for f in report.findings if "clean.py" in f.path]
    assert clean_findings == []


def test_ipd003_ignores_out_of_scope_paths():
    report = run_lint([str(FIXTURES / "ipd003" / "other")], select=["IPD003"])
    assert report.clean


def test_ipd001_messages_name_the_read():
    report = run_lint([str(FIXTURES / "ipd001_fires.py")], select=["IPD001"])
    messages = " ".join(f.message for f in report.findings)
    assert "time.time" in messages
    assert "time.monotonic" in messages
    assert "datetime.now" in messages or "wall clock" in messages


def test_ipd005_only_flags_loops_of_hot_functions():
    report = run_lint([str(FIXTURES / "ipd005_fires.py")], select=["IPD005"])
    kinds = sorted(f.message.split()[0] for f in report.findings)
    # one string build, one comprehension, one attribute chain
    assert len(report.findings) == 3
    assert any("comprehension" in f.message for f in report.findings)
    assert any("string concatenation" in f.message for f in report.findings)
    assert any("attribute chain" in f.message for f in report.findings)
    assert kinds  # parsed messages are non-empty


def test_ipd007_messages_name_the_serializer():
    report = run_lint([str(FIXTURES / "ipd007_fires.py")], select=["IPD007"])
    messages = " ".join(f.message for f in report.findings)
    assert "pickle" in messages
    assert "marshal" in messages
    assert "@hot_path" in messages
