"""IPD004: the codec fingerprint pin in all its failure modes."""

import ast
import json
from pathlib import Path

from repro.devtools.codecguard import (
    extract_codec_version,
    record_pin,
    structural_fingerprint,
)
from repro.devtools.lint import run_lint

FIXTURES = Path(__file__).parent / "fixtures"
VERSIONED = FIXTURES / "ipd004" / "versioned" / "statecodec.py"
NOVERSION = FIXTURES / "ipd004" / "noversion" / "statecodec.py"


def _pin_file(tmp_path: Path, pins: dict) -> Path:
    path = tmp_path / "pins.json"
    path.write_text(json.dumps(pins), encoding="utf-8")
    return path


def _fingerprint(path: Path) -> str:
    return structural_fingerprint(ast.parse(path.read_text(encoding="utf-8")))


def test_matching_pin_is_clean(tmp_path):
    pins = _pin_file(tmp_path, {"statecodec:1": _fingerprint(VERSIONED)})
    report = run_lint([str(VERSIONED)], select=["IPD004"], codec_pins=pins)
    assert report.clean, [f.format() for f in report.findings]


def test_layout_change_without_bump_fires(tmp_path):
    pins = _pin_file(tmp_path, {"statecodec:1": "0" * 64})
    report = run_lint([str(VERSIONED)], select=["IPD004"], codec_pins=pins)
    assert len(report.findings) == 1
    assert "CODEC_VERSION is still 1" in report.findings[0].message


def test_unrecorded_version_fires(tmp_path):
    pins = _pin_file(tmp_path, {"statecodec:2": _fingerprint(VERSIONED)})
    report = run_lint([str(VERSIONED)], select=["IPD004"], codec_pins=pins)
    assert len(report.findings) == 1
    assert "no recorded fingerprint" in report.findings[0].message


def test_missing_pin_file_fires(tmp_path):
    missing = tmp_path / "nope.json"
    report = run_lint([str(VERSIONED)], select=["IPD004"], codec_pins=missing)
    assert len(report.findings) == 1
    assert "missing" in report.findings[0].message


def test_missing_codec_version_fires(tmp_path):
    pins = _pin_file(tmp_path, {})
    report = run_lint([str(NOVERSION)], select=["IPD004"], codec_pins=pins)
    assert len(report.findings) == 1
    assert "CODEC_VERSION" in report.findings[0].message


def test_rule_only_applies_to_codec_modules(tmp_path):
    # a layout-ish file under any other name is out of scope
    report = run_lint(
        [str(FIXTURES / "ipd002_clean.py")],
        select=["IPD004"],
        codec_pins=tmp_path / "absent.json",
    )
    assert report.clean


def test_bare_version_key_is_not_a_pin(tmp_path):
    # only stem-qualified keys are consulted, for statecodec too
    pins = _pin_file(tmp_path, {"1": _fingerprint(VERSIONED)})
    report = run_lint([str(VERSIONED)], select=["IPD004"], codec_pins=pins)
    assert len(report.findings) == 1
    assert "no recorded fingerprint" in report.findings[0].message


def test_fingerprint_tracks_layout_not_formatting(tmp_path):
    base = VERSIONED.read_text(encoding="utf-8")
    reformatted = base.replace(
        "    prefix: int\n    masklen: int", "    prefix: int\n\n    masklen: int"
    )
    assert structural_fingerprint(ast.parse(base)) == structural_fingerprint(
        ast.parse(reformatted)
    )
    changed = base.replace("masklen: int", "masklen: float")
    assert structural_fingerprint(ast.parse(base)) != structural_fingerprint(
        ast.parse(changed)
    )
    constant = base.replace('_MAGIC = b"IPDX"', '_MAGIC = b"IPDY"')
    assert structural_fingerprint(ast.parse(base)) != structural_fingerprint(
        ast.parse(constant)
    )


def test_record_pin_round_trips(tmp_path):
    pin_path = tmp_path / "pins.json"
    version, fingerprint = record_pin(VERSIONED, pin_path)
    assert version == 1
    assert fingerprint == _fingerprint(VERSIONED)
    report = run_lint([str(VERSIONED)], select=["IPD004"], codec_pins=pin_path)
    assert report.clean
    # re-recording the same version is idempotent
    again = record_pin(VERSIONED, pin_path)
    assert again == (version, fingerprint)


def test_extract_codec_version():
    assert extract_codec_version(ast.parse(VERSIONED.read_text())) == 1
    assert extract_codec_version(ast.parse(NOVERSION.read_text())) is None


def test_in_tree_pin_matches_current_statecodec():
    """The repo's own statecodec must match its committed pin."""
    import repro

    statecodec = Path(repro.__file__).parent / "core" / "statecodec.py"
    report = run_lint([str(statecodec)], select=["IPD004"])
    assert report.clean, [f.format() for f in report.findings]

