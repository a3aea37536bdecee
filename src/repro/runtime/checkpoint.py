"""Durable checkpoints: consistent post-sweep engine images on disk.

The paper's deployment runs IPD continuously for years (§4 builds a
2.5-trillion-record longitudinal archive); state that lives only in
process memory means any restart pays a full cold re-convergence.  This
module persists the *merged* engine state — produced by the
:mod:`repro.core.statecodec` wire codec — so a run can stop or crash and
continue exactly where it left off.

Checkpoints are only taken at sweep ticks (the pipeline's barrier), so
every saved image is a consistent post-sweep state: all ingest up to the
tick applied, the sweep's joins/prunes/handoffs settled.  Restoring one
and replaying the remaining flows reproduces the uninterrupted run
byte-for-byte.  Every restore is one plain
:class:`~repro.core.algorithm.IPD`: a sharded run's blob is the merged
single-engine view (:meth:`repro.runtime.sharding.ShardedIPD.to_image`),
and its output equals one engine's.

A checkpoint file is::

    magic "IPDC" | u16 container version | u32 metadata length
    | u32 CRC-32 of payload | metadata (JSON: replay cursor)
    | engine blob (statecodec)

The first two fields are :mod:`repro.core.framing`'s header (any
container version but this build's is refused).  The CRC makes *any*
at-rest corruption — truncation, bit rot, partial writes on
exotic filesystems — fail loudly as :class:`CheckpointCorruptError`
instead of depending on the damage happening to break the codec's
structure.  :class:`CheckpointStore` writes atomically (temp file +
``os.replace``) and keeps the newest ``retain`` files, so a crash
mid-write can never corrupt the latest restorable state.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional, Union

from ..core.admission import AdmissionConfig
from ..core.algorithm import IPD
from ..core.framing import IncompatibleStateError, Reader, StateCodecError
from ..core.framing import Writer, read_header, write_header
from ..core.params import IPDParams

__all__ = [
    "CHECKPOINT_VERSION",
    "Checkpoint",
    "CheckpointCorruptError",
    "CheckpointStore",
    "restore_engine",
    "write_atomic",
]

#: bump when the checkpoint container layout changes (2 added the CRC)
CHECKPOINT_VERSION = 2

_MAGIC = b"IPDC"
#: after the framing header: u32 metadata length, u32 payload CRC-32
_LENGTH_CRC = struct.Struct(">II")


class CheckpointCorruptError(StateCodecError):
    """A checkpoint file is damaged (truncated, bit-flipped, garbled).

    Carries the ``path`` of the offending file and, when the decoder got
    far enough to know, the byte ``offset`` within the *engine blob*
    where parsing gave up — enough for an operator to tell a torn write
    (offset near the end) from wholesale corruption.  Distinct from
    :class:`~repro.core.framing.IncompatibleStateError`, which marks
    a *healthy* file written by another container version.
    """

    def __init__(
        self,
        message: str,
        path: "Path | None" = None,
        offset: "int | None" = None,
    ) -> None:
        super().__init__(message, offset=offset)
        self.path = path

    def __str__(self) -> str:  # noqa: D105 - compose location suffix
        base = super().__str__()
        details = []
        if self.path is not None:
            details.append(f"file={self.path}")
        if self.offset is not None:
            details.append(f"blob offset={self.offset}")
        return f"{base} [{', '.join(details)}]" if details else base


@dataclass(frozen=True)
class Checkpoint:
    """One saved engine state plus the replay cursor to resume from it.

    ``when`` is the sweep tick the image was taken at (post-sweep);
    ``flows_processed`` is how many flow rows the run had consumed, which
    doubles as the skip count when the same stream is replayed on
    resume.  ``next_sweep`` / ``next_snapshot`` restore the pipeline's
    time grids.  ``sweep_count`` is the number of sweeps since the run
    began, across resumes, so a recovery rolls a run's sweep reports
    back to the checkpoint without duplicates.  ``path`` is set by
    :meth:`CheckpointStore.load`
    (purely informational; not serialized, not part of equality).
    """

    when: float
    flows_processed: int
    next_sweep: float
    next_snapshot: Optional[float]
    sweep_count: int
    engine_blob: bytes
    path: Optional[Path] = field(default=None, compare=False, repr=False)

    def to_bytes(self) -> bytes:
        meta = json.dumps(
            {
                "when": self.when,
                "flows_processed": self.flows_processed,
                "next_sweep": self.next_sweep,
                "next_snapshot": self.next_snapshot,
                "sweep_count": self.sweep_count,
            },
            sort_keys=True,
        ).encode("utf-8")
        crc = zlib.crc32(self.engine_blob, zlib.crc32(meta)) & 0xFFFFFFFF
        writer = Writer()
        write_header(writer, _MAGIC, CHECKPOINT_VERSION)
        writer.raw(_LENGTH_CRC.pack(len(meta), crc))
        writer.raw(meta)
        writer.raw(self.engine_blob)
        return bytes(writer.buffer)

    @classmethod
    def from_bytes(cls, data: bytes) -> "Checkpoint":
        reader = Reader(data)
        read_header(reader, _MAGIC, CHECKPOINT_VERSION, what="IPD checkpoint")
        meta_start = reader.offset + _LENGTH_CRC.size
        if len(data) < meta_start:
            raise StateCodecError("truncated checkpoint header")
        meta_len, expected_crc = _LENGTH_CRC.unpack_from(data, reader.offset)
        meta_end = meta_start + meta_len
        if len(data) < meta_end:
            raise StateCodecError("truncated checkpoint metadata")
        actual_crc = zlib.crc32(data[meta_start:]) & 0xFFFFFFFF
        if actual_crc != expected_crc:
            raise StateCodecError(
                f"checkpoint payload CRC mismatch "
                f"(stored {expected_crc:#010x}, computed {actual_crc:#010x})"
            )
        try:
            meta = json.loads(data[meta_start:meta_end])
        except ValueError as exc:
            raise StateCodecError(f"damaged checkpoint metadata: {exc}") from exc
        return cls(
            when=float(meta["when"]),
            flows_processed=int(meta["flows_processed"]),
            next_sweep=float(meta["next_sweep"]),
            next_snapshot=(
                None
                if meta.get("next_snapshot") is None
                else float(meta["next_snapshot"])
            ),
            sweep_count=int(meta["sweep_count"]),
            engine_blob=data[meta_end:],
        )


def write_atomic(path: Path, data: bytes) -> None:
    """Replace *path* with *data* so that a crash at any point leaves
    either the old file or the new one: write a sibling ``.tmp``, fsync
    it, then ``os.replace`` it over *path*."""
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as handle:
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)


class CheckpointStore:
    """A directory of checkpoint files with atomic writes and retention."""

    def __init__(self, directory: Union[str, Path], retain: int = 3) -> None:
        if retain < 1:
            raise ValueError("retain must be at least 1")
        self.directory = Path(directory)
        self.retain = retain
        self.directory.mkdir(parents=True, exist_ok=True)

    def _path_for(self, when: float) -> Path:
        # zero-padded fixed width so lexicographic file order == tick order
        return self.directory / f"checkpoint-{when:020.6f}.ckpt"

    def list(self) -> list[Path]:
        """Checkpoint files, oldest first."""
        return sorted(self.directory.glob("checkpoint-*.ckpt"))

    def save(self, checkpoint: Checkpoint) -> Path:
        """Atomically persist one checkpoint and prune old ones."""
        path = self._path_for(checkpoint.when)
        write_atomic(path, checkpoint.to_bytes())
        for stale in self.list()[:-self.retain]:
            stale.unlink(missing_ok=True)
        return path

    def load(self, path: Union[str, Path]) -> Checkpoint:
        """Parse one checkpoint file.

        Damage of any kind — bad magic, torn header, CRC mismatch,
        garbled metadata — raises :class:`CheckpointCorruptError` with
        the file's path; a healthy container of another version still
        raises :class:`~repro.core.framing.IncompatibleStateError`.
        """
        path = Path(path)
        try:
            checkpoint = Checkpoint.from_bytes(path.read_bytes())
        except IncompatibleStateError:
            raise
        except StateCodecError as exc:
            # no offset: that field locates damage inside the engine blob
            raise CheckpointCorruptError(str(exc), path=path) from exc
        return replace(checkpoint, path=path)

    def latest(self) -> Optional[Checkpoint]:
        """The newest checkpoint, or ``None`` when the store is empty.

        Raises :class:`CheckpointCorruptError` if the newest file is
        damaged — explicit resumes should fail loudly rather than
        silently rewind; crash recovery uses :meth:`latest_valid`.
        """
        paths = self.list()
        return self.load(paths[-1]) if paths else None

    def latest_valid(self) -> Optional[Checkpoint]:
        """The newest *loadable* checkpoint, skipping corrupt files.

        The crash-recovery fallback: a damaged newer file costs replay
        time (recovery rewinds one more tick) but never correctness —
        the replay from the older image reproduces the same output.
        Returns ``None`` when no file loads (including incompatible
        ones); recovery then restarts from scratch.
        """
        for path in reversed(self.list()):
            try:
                return self.load(path)
            except StateCodecError:
                continue
        return None

    def restore_engine(
        self,
        checkpoint: Checkpoint,
        params: Optional[IPDParams] = None,
        admission: Optional[AdmissionConfig] = None,
    ) -> IPD:
        """Rebuild the plain engine *checkpoint* holds (see :func:`restore_engine`).

        A truncated or corrupt engine blob raises
        :class:`CheckpointCorruptError` carrying the checkpoint's path
        and the blob offset where decoding failed, instead of whatever
        low-level struct/LEB128 error the codec hit.
        """
        try:
            return restore_engine(checkpoint.engine_blob, params, admission)
        except IncompatibleStateError:
            raise
        except StateCodecError as exc:
            raise CheckpointCorruptError(
                str(exc), path=checkpoint.path, offset=exc.offset
            ) from exc


def restore_engine(
    blob: bytes,
    params: Optional[IPDParams] = None,
    admission: Optional[AdmissionConfig] = None,
) -> IPD:
    """Rebuild one plain :class:`~repro.core.algorithm.IPD` from an engine
    blob, whichever engine wrote it (:meth:`IPD.from_bytes`).

    ``params`` is only needed when the run used a custom
    (non-serializable) decay function; a trailing admission section in
    the blob wins over *admission*.
    """
    return IPD.from_bytes(blob, params=params, admission=admission)
