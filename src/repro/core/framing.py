"""One framing under every blob this build writes.

Engine state (``IPDS``, :mod:`~repro.core.statecodec`), the admission
section (``IPDA``, :mod:`~repro.core.admission`) and the checkpoint
container (``IPDC``, :mod:`repro.runtime.checkpoint`) all open with::

    magic (4 bytes) | [u8 kind] | version (u8 or u16, big-endian)

and continue with :class:`Writer` primitives: unsigned LEB128 varints,
8-byte big-endian IEEE-754 floats (bit-exact), length-prefixed UTF-8
strings, per-blob interned ingress points, ``(family, masklen, value)``
prefixes.  One version rule (:func:`read_header`): any version but this
build's is an :class:`IncompatibleStateError` naming both — there is no
legacy read path.  All other damage is a :class:`StateCodecError` with
the byte ``offset`` the decoder had reached (:func:`damage_reported`).
The format modules keep their ``_MAGIC`` / ``_KIND_*`` constants and
payload layouts (what IPD004 fingerprints).
"""

from __future__ import annotations

import struct
from contextlib import contextmanager
from typing import Iterator, Optional

from ..topology.elements import IngressPoint
from .iputil import Prefix

__all__ = [
    "StateCodecError",
    "IncompatibleStateError",
    "Writer",
    "Reader",
    "write_header",
    "read_header",
    "damage_reported",
]

_pack_float = struct.Struct(">d").pack
_unpack_float = struct.Struct(">d").unpack_from


class StateCodecError(ValueError):
    """A blob could not be encoded or decoded.

    ``offset`` carries the byte position the decoder had reached when
    the damage was detected (``None`` when unknown or not applicable),
    so callers like :class:`~repro.runtime.checkpoint.CheckpointStore`
    can report *where* a blob is corrupt, not just that it is.
    """

    def __init__(self, message: str, offset: "int | None" = None) -> None:
        super().__init__(message)
        self.offset = offset


class IncompatibleStateError(StateCodecError):
    """The blob was written by a codec version this build does not read."""


class Writer:
    """Byte-stream writer with per-blob ingress interning."""

    def __init__(self) -> None:
        self.buffer = bytearray()
        self._ingress_table: dict[IngressPoint, int] = {}

    def raw(self, data: "bytes | bytearray") -> None:
        self.buffer += data

    def byte(self, value: int) -> None:
        self.buffer.append(value)

    def uvarint(self, value: int) -> None:
        if value < 0:
            raise StateCodecError(f"cannot encode negative varint: {value}")
        while True:
            byte = value & 0x7F
            value >>= 7
            if value:
                self.byte(byte | 0x80)
            else:
                self.byte(byte)
                return

    def float(self, value: float) -> None:
        self.raw(_pack_float(value))

    def string(self, text: str) -> None:
        raw = text.encode("utf-8")
        self.uvarint(len(raw))
        self.raw(raw)

    def ingress(self, ingress: IngressPoint) -> None:
        index = self._ingress_table.get(ingress)
        if index is not None:
            self.uvarint(index + 1)
            return
        self.uvarint(0)
        self.string(ingress.router)
        self.string(ingress.interface)
        self._ingress_table[ingress] = len(self._ingress_table)

    def prefix(self, prefix: Prefix) -> None:
        self.byte(prefix.version)
        self.uvarint(prefix.masklen)
        self.uvarint(prefix.value)


class Reader:
    """Mirror of :class:`Writer`; raises on truncated or damaged input."""

    def __init__(self, data: "bytes | bytearray | memoryview") -> None:
        self.data = data
        self.offset = 0
        self._ingress_table: list[IngressPoint] = []

    def byte(self) -> int:
        if self.offset >= len(self.data):
            raise StateCodecError("truncated blob")
        value = self.data[self.offset]
        self.offset += 1
        return value

    def uvarint(self) -> int:
        value = 0
        shift = 0
        while True:
            byte = self.byte()
            value |= (byte & 0x7F) << shift
            if not byte & 0x80:
                return value
            shift += 7
            if shift > 140:
                raise StateCodecError("varint too long")

    def float(self) -> float:
        if self.offset + 8 > len(self.data):
            raise StateCodecError("truncated blob")
        (value,) = _unpack_float(self.data, self.offset)
        self.offset += 8
        return value

    def string(self) -> str:
        length = self.uvarint()
        end = self.offset + length
        if end > len(self.data):
            raise StateCodecError("truncated blob")
        # bytes() also covers memoryview input (slices of a larger blob)
        text = bytes(self.data[self.offset:end]).decode("utf-8")
        self.offset = end
        return text

    def ingress(self) -> IngressPoint:
        ref = self.uvarint()
        if ref == 0:
            ingress = IngressPoint(self.string(), self.string())
            self._ingress_table.append(ingress)
            return ingress
        index = ref - 1
        if index >= len(self._ingress_table):
            raise StateCodecError(f"dangling ingress reference {index}")
        return self._ingress_table[index]

    def prefix(self) -> Prefix:
        version = self.byte()
        masklen = self.uvarint()
        value = self.uvarint()
        # out-of-range fields: Prefix raises, damage_reported types it
        return Prefix(value, masklen, version)


def write_header(
    writer: Writer,
    magic: bytes,
    version: int,
    kind: Optional[int] = None,
    version_width: int = 2,
) -> None:
    """Open a blob: magic, the kind byte if the format has one, version."""
    writer.raw(magic)
    if kind is not None:
        writer.byte(kind)
    writer.raw(version.to_bytes(version_width, "big"))


def read_header(
    reader: Reader,
    magic: bytes,
    version: int,
    kind: Optional[int] = None,
    version_width: int = 2,
    what: str = "IPD blob",
) -> None:
    """Check what :func:`write_header` wrote and step *reader* past it.

    *what* names the format in messages (``"IPD state blob"``).  The
    version is judged before the kind: a blob from another build is
    incompatible whatever else it says.
    """
    data = reader.data
    if bytes(data[:len(magic)]) != magic:
        raise StateCodecError(f"not an {what} (bad magic)", offset=0)
    reader.offset = len(magic)
    found_kind = reader.byte() if kind is not None else -1
    end = reader.offset + version_width
    if end > len(data):
        raise StateCodecError("truncated blob", offset=reader.offset)
    found = int.from_bytes(data[reader.offset:end], "big")
    reader.offset = end
    if found != version:
        raise IncompatibleStateError(
            f"{what} uses codec version {found}; this build reads only "
            f"version {version}",
            offset=reader.offset,
        )
    if kind is not None and found_kind != kind:
        raise StateCodecError(
            f"unexpected blob kind {chr(found_kind)!r}; expected {chr(kind)!r}",
            offset=reader.offset,
        )


@contextmanager
def damage_reported(reader: Reader) -> Iterator[None]:
    """Normalize decoder failures into offset-carrying codec errors.

    Structural damage surfaces in many shapes — truncation (already a
    :class:`StateCodecError`), a corrupted varint blowing up a ``range``,
    invalid UTF-8 in an interned ingress name, out-of-range prefix
    fields rejected by :class:`~repro.core.iputil.Prefix`, parameter
    values rejected by ``IPDParams.__post_init__``.  All of them exit
    here as a :class:`StateCodecError` whose ``offset`` pins where in
    the blob the decoder gave up; a codec error raised inside keeps its
    type (version incompatibility included) and gains the offset.
    """
    try:
        yield
    except StateCodecError as exc:
        if exc.offset is None:
            exc.offset = reader.offset
        raise
    except (ValueError, KeyError, IndexError, OverflowError, struct.error) as exc:
        raise StateCodecError(
            f"damaged blob at offset {reader.offset}: {exc!r}",
            offset=reader.offset,
        ) from exc
