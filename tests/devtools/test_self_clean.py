"""The linter holds on the codebase itself, via API and via CLI."""

import json
import subprocess
import sys
from pathlib import Path

import repro
from repro.devtools.lint import main, run_lint

SRC_REPRO = Path(repro.__file__).parent
REPO_ROOT = SRC_REPRO.parents[1]
FIXTURES = Path(__file__).parent / "fixtures"


def test_src_repro_is_lint_clean():
    """Acceptance gate: zero findings over the entire package."""
    report = run_lint([str(SRC_REPRO)])
    assert report.clean, "\n".join(f.format() for f in report.findings)
    assert report.files_scanned > 50  # the whole tree, not a subset


def _cli(*argv: str) -> "subprocess.CompletedProcess[str]":
    env = {"PYTHONPATH": str(SRC_REPRO.parent), "PATH": "/usr/bin:/bin"}
    return subprocess.run(
        [sys.executable, "-m", "repro.devtools.lint", *argv],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
        env=env,
    )


def test_cli_json_on_src_repro_exits_zero():
    proc = _cli(str(SRC_REPRO), "--format", "json")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["clean"] is True
    assert payload["findings"] == []


def test_cli_exits_one_on_findings():
    proc = _cli(str(FIXTURES / "ipd001_fires.py"))
    assert proc.returncode == 1
    assert "IPD001" in proc.stdout
    assert proc.stdout.strip().endswith("suppressed") or "FAIL:" in proc.stdout


def test_cli_exits_two_on_usage_errors():
    assert main([]) == 2
    assert main([str(FIXTURES), "--select", "IPD999"]) == 2
    assert main([str(FIXTURES / "no_such_dir")]) == 2


def test_cli_list_rules(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for code in (
        "IPD001", "IPD002", "IPD003", "IPD004", "IPD005", "IPD007",
        "IPD008",
    ):
        assert code in out


def test_cli_select_subset(capsys):
    code = main([str(FIXTURES / "ipd001_fires.py"), "--select", "IPD002"])
    assert code == 0  # the IPD001 fixture is clean under IPD002 alone


def test_module_alias_runs_the_linter():
    proc = subprocess.run(
        [sys.executable, "-m", "repro.devtools", str(FIXTURES / "ipd002_fires.py")],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
        env={"PYTHONPATH": str(SRC_REPRO.parent), "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 1
    assert "IPD002" in proc.stdout
