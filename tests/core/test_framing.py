"""The one framing under the three blob formats (repro.core.framing).

Three things are pinned here, once, for every format:

* the header-damage table — what a decoder says about a bad magic, a
  header cut short, a foreign kind, another build's version, a runaway
  varint, a dangling ingress reference and trailing bytes;
* the ``Writer`` / ``Reader`` primitives round-trip, bit-exactly;
* blobs written at an earlier commit (``data/parent_blobs.json``;
  carried over the ``IPDS`` v2 bump by its two edits, the version field
  and the dropped one-byte failure count) decode and re-encode to the
  same SHA-256, and this build still writes them byte for byte.
"""

import hashlib
import json
import math
import struct
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import IncompatibleStateError as CoreIncompatible
from repro.core.admission import (
    CODEC_VERSION as ADMISSION_VERSION,
    AdmissionConfig,
    AdmissionImage,
    decode_admission,
    encode_admission,
)
from repro.core.algorithm import IPD
from repro.core.framing import (
    IncompatibleStateError,
    Reader,
    StateCodecError,
    Writer,
    damage_reported,
    read_header,
    write_header,
)
from repro.core.iputil import IPV4, IPV6, Prefix
from repro.core.statecodec import (
    CODEC_VERSION as STATE_VERSION,
    NodeImage,
    decode_engine,
    decode_subtree,
    encode_engine,
    encode_subtree,
)
from repro.runtime.checkpoint import CHECKPOINT_VERSION, Checkpoint
from repro.testkit.traces import FIG05_PARAMS, fig05_trace
from repro.topology.elements import IngressPoint

A = IngressPoint("R1", "et0")
B = IngressPoint("R2", "xe-0/0/1")


# ---------------------------------------------------------------------------
# one sample blob per format, and where its header fields sit
# ---------------------------------------------------------------------------


def subtree_blob() -> bytes:
    root = NodeImage(
        kind="classified", ingress=A, counters=[(A, 3.0), (B, 1.0)],
        last_seen=5.0, classified_at=2.0,
    )
    return encode_subtree(Prefix.from_string("10.0.0.0/8"), IPV4, root)


def admission_blob() -> bytes:
    return encode_admission(
        AdmissionImage(
            AdmissionConfig(mode="lossy"),
            age_boundary=3,
            sketches={IPV4: [(1, 2.0), (70, 1.0)]},
            elephants={IPV4: [16, 32]},
        )
    )


def checkpoint_blob() -> bytes:
    return Checkpoint(
        when=60.0, flows_processed=7, next_sweep=120.0, next_snapshot=None,
        sweep_count=1, engine_blob=subtree_blob(),
    ).to_bytes()


#: name -> (sample, decoder, this build's version, version offset,
#:          version width, kind offset or None)
FORMATS = {
    "IPDS": (subtree_blob, decode_subtree, STATE_VERSION, 5, 2, 4),
    "IPDA": (admission_blob, decode_admission, ADMISSION_VERSION, 5, 1, 4),
    "IPDC": (checkpoint_blob, Checkpoint.from_bytes, CHECKPOINT_VERSION, 4, 2, None),
}


def with_version(name: str, version: int) -> bytes:
    sample, __, ___, at, width, ____ = FORMATS[name]
    blob = bytearray(sample())
    blob[at:at + width] = version.to_bytes(width, "big")
    return bytes(blob)


def header_of(name: str) -> bytes:
    sample, __, ___, at, width, ____ = FORMATS[name]
    return sample()[:at + width]


def _damage_rows():
    runaway = b"\xff" * 25  # 175 bits of continuation: past the 140-bit cap
    for name, (sample, decode, version, at, width, kind_at) in FORMATS.items():
        blob = sample()
        yield name, "bad-magic", decode, b"XXXX" + blob[4:], "magic"
        yield name, "cut-before-version", decode, blob[:at], None
        yield name, "cut-inside-version", decode, blob[:at + width - 1], None
        if kind_at is not None:
            foreign = bytearray(blob)
            foreign[kind_at] ^= 0x1F
            yield name, "wrong-kind", decode, bytes(foreign), "kind"
    head = header_of("IPDS")
    yield "IPDS", "varint-over-140-bits", decode_subtree, head + b"\x04" + runaway, "varint"
    yield "IPDA", "varint-over-140-bits", decode_admission, (
        header_of("IPDA") + b"\x00" + struct.pack(">d", 4.0) + runaway
    ), "varint"
    # version 4, 10.0.0.0/8, no splits or joins, a classified node whose
    # ingress is reference 3 into an empty table
    dangling = Writer()
    dangling.raw(head)
    dangling.byte(IPV4)
    dangling.prefix(Prefix.from_string("10.0.0.0/8"))
    dangling.uvarint(0)
    dangling.uvarint(0)
    dangling.byte(2)
    dangling.uvarint(4)
    yield "IPDS", "dangling-ingress-ref", decode_subtree, bytes(dangling.buffer), "dangling"
    yield "IPDC", "trailing-bytes", Checkpoint.from_bytes, checkpoint_blob() + b"\x00", "CRC mismatch"


@pytest.mark.parametrize(
    "name,decode,blob,message",
    [
        pytest.param(row[0], *row[2:], id=f"{row[0]}-{row[1]}")
        for row in _damage_rows()
    ],
)
def test_damage_is_a_codec_error_with_an_offset(name, decode, blob, message):
    with pytest.raises(StateCodecError, match=message) as excinfo:
        decode(blob)
    assert not isinstance(excinfo.value, IncompatibleStateError)
    if name != "IPDC":
        # (past its framing header the checkpoint container reports no
        # offsets: `offset` on its errors locates damage in the engine blob)
        assert excinfo.value.offset is not None
        assert 0 <= excinfo.value.offset <= len(blob)


@pytest.mark.parametrize("name", sorted(FORMATS))
@pytest.mark.parametrize("delta", [-1, 1])
def test_any_other_version_is_incompatible_naming_both(name, delta):
    __, decode, version, ___, ____, _____ = FORMATS[name]
    with pytest.raises(
        IncompatibleStateError,
        match=f"version {version + delta}; .*version {version}$",
    ) as excinfo:
        decode(with_version(name, version + delta))
    assert excinfo.value.offset is not None
    assert CoreIncompatible is IncompatibleStateError  # one class, two paths


@pytest.mark.parametrize("name", sorted(FORMATS))
def test_samples_decode_and_trailing_bytes_where_allowed(name):
    sample, decode, *__ = FORMATS[name]
    decode(sample())
    if name in ("IPDS", "IPDA"):  # sections may be followed by another
        decode(sample() + b"\x00\x01")


def test_engine_section_may_be_followed_by_an_admission_section():
    assert decode_engine(IPD(FIG05_PARAMS).to_bytes() + admission_blob())


def test_header_pair_is_its_own_mirror():
    for kind, width in ((None, 2), (0x45, 2), (0x41, 1)):
        writer = Writer()
        write_header(writer, b"IPDX", 9, kind, version_width=width)
        writer.uvarint(300)
        reader = Reader(bytes(writer.buffer))
        read_header(reader, b"IPDX", 9, kind, version_width=width)
        assert reader.uvarint() == 300
        assert reader.offset == len(writer.buffer)


def test_the_version_is_judged_before_the_kind():
    writer = Writer()
    write_header(writer, b"IPDX", 3, 0x54)
    with pytest.raises(IncompatibleStateError):
        read_header(Reader(bytes(writer.buffer)), b"IPDX", 2, 0x45)


def test_damage_reported_types_foreign_errors_and_keeps_incompatible():
    reader = Reader(b"\x01\x02")
    reader.offset = 1
    with pytest.raises(StateCodecError, match="offset 1") as excinfo:
        with damage_reported(reader):
            raise KeyError("when")
    assert excinfo.value.offset == 1
    with pytest.raises(IncompatibleStateError) as excinfo:
        with damage_reported(reader):
            raise IncompatibleStateError("other build")
    assert excinfo.value.offset == 1  # same type, located


# ---------------------------------------------------------------------------
# primitives
# ---------------------------------------------------------------------------

_ingresses = st.builds(
    IngressPoint, st.text(max_size=12), st.text(max_size=12)
)
_prefixes = st.one_of(
    st.integers(0, 32).flatmap(
        lambda m: st.integers(0, (1 << 32) - 1).map(
            lambda v: Prefix.from_ip(v, m, IPV4)
        )
    ),
    st.integers(0, 128).flatmap(
        lambda m: st.integers(0, (1 << 128) - 1).map(
            lambda v: Prefix.from_ip(v, m, IPV6)
        )
    ),
)
_fields = st.one_of(
    st.tuples(st.just("uvarint"), st.integers(0, (1 << 140) - 1)),
    st.tuples(st.just("float"), st.floats(allow_nan=True, allow_infinity=True)),
    st.tuples(st.just("float"), st.sampled_from([math.inf, -math.inf, -0.0, 0.0])),
    st.tuples(st.just("string"), st.text(max_size=40)),
    st.tuples(st.just("ingress"), _ingresses),
    st.tuples(st.just("prefix"), _prefixes),
    st.tuples(st.just("byte"), st.integers(0, 255)),
)


@given(st.lists(_fields, max_size=30))
def test_writer_reader_round_trip(fields):
    # every ingress twice, so the second write is an interned reference
    fields = [f for field in fields for f in ([field] * (1 + (field[0] == "ingress")))]
    writer = Writer()
    for kind, value in fields:
        getattr(writer, kind)(value)
    reader = Reader(memoryview(bytes(writer.buffer)))
    for kind, value in fields:
        got = getattr(reader, kind)()
        if kind == "float":
            assert struct.pack(">d", got) == struct.pack(">d", value)
        else:
            assert got == value
    assert reader.offset == len(writer.buffer)
    interned = Writer()
    interned.ingress(A)
    first = len(interned.buffer)
    interned.ingress(A)
    assert len(interned.buffer) == first + 1


def test_uvarint_limits():
    with pytest.raises(StateCodecError, match="negative"):
        Writer().uvarint(-1)
    with pytest.raises(StateCodecError, match="truncated"):
        Reader(b"\x80").uvarint()
    with pytest.raises(StateCodecError, match="truncated"):
        Reader(b"\x00" * 7).float()


# ---------------------------------------------------------------------------
# byte identity with the parent commit
# ---------------------------------------------------------------------------

PARENT_BLOBS = {
    name: bytes.fromhex(entry["hex"])
    for name, entry in json.loads(
        (Path(__file__).parent / "data" / "parent_blobs.json").read_text()
    ).items()
}

_RECODE = {
    "engine_fig05_first_sweep": lambda blob: encode_engine(decode_engine(blob)),
    "engine_dualstack_lossy": lambda blob: IPD.from_bytes(blob).to_bytes(),
    "admission_section": lambda blob: encode_admission(decode_admission(blob)),
    "checkpoint_fig05_last": lambda blob: Checkpoint.from_bytes(blob).to_bytes(),
}


@pytest.mark.parametrize("name", sorted(_RECODE))
def test_parent_blob_decodes_and_reencodes_to_the_same_digest(name):
    blob = PARENT_BLOBS[name]
    assert hashlib.sha256(_RECODE[name](blob)).digest() == hashlib.sha256(blob).digest()


def test_this_build_writes_the_parents_fig05_bytes():
    """The engine blob after the first fig05 sweep, encoded here, equals
    the parent's file."""
    engine = IPD(FIG05_PARAMS)
    flows = fig05_trace()
    first_sweep = FIG05_PARAMS.t
    for flow in flows:
        if flow.timestamp >= first_sweep:
            break
        engine.ingest(flow)
    engine.sweep(first_sweep)
    assert engine.to_bytes() == PARENT_BLOBS["engine_fig05_first_sweep"]
    assert len(PARENT_BLOBS["engine_fig05_first_sweep"]) == 1613
