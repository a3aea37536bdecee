"""Structural fingerprinting of the wire codecs (rule IPD004).

Two modules define versioned wire formats: the engine state codec
(:mod:`repro.core.statecodec`) and the admission section
(:mod:`repro.core.admission`).  Every persisted engine blob and
checkpoint depends on decoders agreeing with the version stamped in
the blob.  The encoded layout is defined by things that live in
plain Python and are therefore easy to change *silently*:

* the field lists of the image dataclasses (``NodeImage``,
  ``TreeImage``, ``SubtreeImage``, ``EngineImage``) that the encoder
  walks, and
* the wire constants (``_MAGIC``, ``_KIND_*``, ``_TAG_*``, ``_FLAG_*``)
  that frame the byte stream.

This module reduces both to a canonical *structural fingerprint* —
a SHA-256 over the dataclass layouts and wire constants extracted from
the module's AST — and rule IPD004 pins that fingerprint to the
``CODEC_VERSION`` it was recorded at (``codec_fingerprints.json``).
Pins are keyed ``<module stem>:<version>`` (``statecodec:1``,
``admission:2``).  Changing a layout without bumping its version fails the
lint; bumping the version requires recording the new fingerprint, which
makes the compatibility decision explicit in the diff.

Regenerate the pins after an *intentional* format change with::

    python -m repro.devtools.lint --record-codec-pin
"""

from __future__ import annotations

import ast
import hashlib
import json
from pathlib import Path
from typing import Optional

__all__ = [
    "DEFAULT_PIN_PATH",
    "structural_fingerprint",
    "load_pins",
    "pin_for",
    "record_pin",
]

#: the committed version → fingerprint map
DEFAULT_PIN_PATH = Path(__file__).resolve().parent / "codec_fingerprints.json"

#: module-level constant name prefixes that define the wire framing
_WIRE_PREFIXES = ("_MAGIC", "_KIND_", "_TAG_", "_FLAG_")


def _is_dataclass_decorator(decorator: ast.expr) -> bool:
    target = decorator.func if isinstance(decorator, ast.Call) else decorator
    if isinstance(target, ast.Name):
        return target.id == "dataclass"
    if isinstance(target, ast.Attribute):
        return target.attr == "dataclass"
    return False


def _dataclass_layouts(tree: ast.Module) -> dict[str, list[list[str]]]:
    """Ordered ``(field, annotation)`` pairs for each module dataclass."""
    layouts: dict[str, list[list[str]]] = {}
    for node in tree.body:
        if not isinstance(node, ast.ClassDef):
            continue
        if not any(_is_dataclass_decorator(dec) for dec in node.decorator_list):
            continue
        fields: list[list[str]] = []
        for stmt in node.body:
            if isinstance(stmt, ast.AnnAssign) and isinstance(
                stmt.target, ast.Name
            ):
                fields.append([stmt.target.id, ast.unparse(stmt.annotation)])
        layouts[node.name] = fields
    return layouts


def _wire_constants(tree: ast.Module) -> dict[str, str]:
    """Literal values of the framing constants, as stable reprs."""
    constants: dict[str, str] = {}
    for node in tree.body:
        if not isinstance(node, ast.Assign) or len(node.targets) != 1:
            continue
        target = node.targets[0]
        if not isinstance(target, ast.Name):
            continue
        name = target.id
        if not name.startswith(_WIRE_PREFIXES):
            continue
        try:
            constants[name] = repr(ast.literal_eval(node.value))
        except ValueError:
            # derived (non-literal) constants don't frame the stream
            continue
    return constants


def extract_codec_version(tree: ast.Module) -> Optional[int]:
    """The module-level ``CODEC_VERSION`` integer literal, if present."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name) and target.id == "CODEC_VERSION":
                value = node.value
                if isinstance(value, ast.Constant) and isinstance(
                    value.value, int
                ):
                    return value.value
    return None


def structural_fingerprint(tree: ast.Module) -> str:
    """Canonical SHA-256 over the encoded-layout structure of *tree*."""
    payload = {
        "dataclasses": _dataclass_layouts(tree),
        "constants": _wire_constants(tree),
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def load_pins(path: "Path | str" = DEFAULT_PIN_PATH) -> dict[str, str]:
    """The committed ``key -> fingerprint`` map, keys as stored.

    Keys are ``<module stem>:<version>``; resolve one with
    :func:`pin_for` rather than indexing directly.
    """
    raw = json.loads(Path(path).read_text(encoding="utf-8"))
    return {str(key): str(fingerprint) for key, fingerprint in raw.items()}


def pin_for(pins: dict[str, str], stem: str, version: int) -> Optional[str]:
    """The recorded fingerprint for codec module *stem* at *version*."""
    return pins.get(f"{stem}:{version}")


def record_pin(
    source_path: "Path | str",
    pin_path: "Path | str" = DEFAULT_PIN_PATH,
) -> tuple[int, str]:
    """Record the current fingerprint of *source_path* under its version.

    The pin is written under the stem-qualified key
    (``<stem>:<version>``).  Returns ``(version, fingerprint)``.  Fails
    if the module carries no ``CODEC_VERSION`` literal.
    """
    source = Path(source_path)
    tree = ast.parse(source.read_text(encoding="utf-8"))
    version = extract_codec_version(tree)
    if version is None:
        raise ValueError(f"{source_path} defines no CODEC_VERSION literal")
    fingerprint = structural_fingerprint(tree)
    pin_file = Path(pin_path)
    pins: dict[str, str] = {}
    if pin_file.exists():
        pins = json.loads(pin_file.read_text(encoding="utf-8"))
    pins[f"{source.stem}:{version}"] = fingerprint
    pin_file.write_text(
        json.dumps(pins, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return version, fingerprint
