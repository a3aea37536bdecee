"""Differential decode: the columnar CSV reader against a row-wise reference.

``read_flows_csv_batched`` is the only flow-CSV decoder in the package, so
the language it accepts is pinned here against the reader it replaced: a
``csv.reader`` + ``parse_ip`` + ``FlowRecord``-per-row loop kept only in
this file.  Generated files cover what the byte pass must not get wrong —
quoting, a comma or a line break inside a router name, CRLF line ends,
blank lines, a missing final newline, family changes inside a chunk,
``dst_ip`` on some, all or no rows — at chunk sizes around and far above
the file length; every malformed row must raise ``ValueError`` on both.
The byte converters are held batch for batch against ``float()``,
``int()``, ``parse_ip`` and ``IngressPoint`` on generated plain chunks,
and a constant key hash must not merge two ingresses.
"""

import csv
import io
import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.iputil import format_ip, parse_ip
from repro.netflow import records
from repro.netflow.records import (
    FlowBatch,
    FlowRecord,
    read_flows_csv,
    read_flows_csv_batched,
    write_flows_csv,
)
from repro.topology.elements import IngressPoint
from repro.workloads.scenarios import default_scenario

HEADER = ["timestamp", "src_ip", "router", "interface", "packets", "bytes", "dst_ip"]
BATCH_SIZES = [1, 2, 7, 8192]


def reference_read(stream):
    """The replaced per-row reader, verbatim in behaviour."""
    reader = csv.reader(stream)
    header = next(reader, None)
    if header is not None and header != HEADER:
        raise ValueError(f"unexpected flow CSV header: {header!r}")
    for row in reader:
        if not row:
            continue
        timestamp, src_text, router, interface, packets, byte_count, dst_text = row
        src_value, version = parse_ip(src_text)
        dst_value = None
        if dst_text:
            dst_value, dst_version = parse_ip(dst_text)
            if dst_version != version:
                raise ValueError(f"mixed address families in row: {row!r}")
        yield FlowRecord(
            float(timestamp), src_value, version, IngressPoint(router, interface),
            int(packets), int(byte_count), dst_value,
        )


def render(rows, quote_all=False, eol="\n", blanks=(), final_eol=True):
    """CSV text for *rows* (lists of field texts), one row per line.

    *blanks* holds row indexes that get an empty line in front of them.
    """

    def field(text):
        if quote_all or any(char in text for char in ',"\r\n'):
            return '"' + text.replace('"', '""') + '"'
        return text

    lines = []
    for index, row in enumerate([HEADER, *rows]):
        if index in blanks:
            lines.append("")
        lines.append(",".join(map(field, row)))
    return eol.join(lines) + (eol if final_eol else "")


def streams(text):
    """The two stream kinds a caller can hand in for one text."""
    return io.StringIO(text), io.StringIO(text, newline="")


def decode(text, batch_size):
    """Rows of the batched reader per stream kind (a row's family is its
    batch's, so equality with the reference also checks the family cuts)."""
    for stream in streams(text):
        flows = []
        for batch in read_flows_csv_batched(stream, batch_size):
            assert 0 < len(batch) <= batch_size
            flows.extend(batch.iter_flows())
        yield flows


V4 = ["10.0.0.1", "10.0.0.2", "198.51.100.7", "255.255.255.255", "0.0.0.0"]
V6 = ["2001:db8::9", "::1", "::ffff:1.2.3.4", "FE80::ABCD", format_ip(1 << 127, 6)]
ROUTERS = ["R1", "C3-R5", "R,1", 'R"q"', "R\n9", " R 2 ", ""]


@st.composite
def row_strategy(draw, dst=st.booleans()):
    family = draw(st.sampled_from([V4, V4, V6]))
    return [
        draw(st.sampled_from(["0.000", "43200.051", "7", "1e3", " 12.5"])),
        draw(st.sampled_from(family)),
        draw(st.sampled_from(ROUTERS)),
        draw(st.sampled_from(["et0", "hu6", "xe0+xe1"])),
        str(draw(st.integers(min_value=0, max_value=10**6))),
        str(draw(st.integers(min_value=0, max_value=10**12))),
        draw(st.sampled_from(family)) if draw(dst) else "",
    ]


file_strategy = st.builds(
    render,
    rows=st.one_of(
        st.lists(row_strategy(), max_size=30),
        st.lists(row_strategy(dst=st.just(True)), max_size=10),
        st.lists(row_strategy(dst=st.just(False)), max_size=10),
    ),
    quote_all=st.booleans(),
    eol=st.sampled_from(["\n", "\r\n"]),
    blanks=st.frozensets(st.integers(min_value=1, max_value=30), max_size=4),
    final_eol=st.booleans(),
)


@settings(max_examples=150, deadline=None)
@given(file_strategy, st.sampled_from(BATCH_SIZES))
def test_batched_reader_yields_the_reference_row_stream(text, batch_size):
    expected = list(reference_read(io.StringIO(text)))
    for flows in decode(text, batch_size):
        assert flows == expected
    for stream in streams(text):
        assert list(read_flows_csv(stream)) == expected


def chunk_kinds(text, batch_size):
    """Per chunk, header first: ``"bytes"`` for the byte pass, else ``"csv"``."""
    return ["csv" if chunk.data is None else "bytes"
            for chunk, __ in records._tokenise(io.StringIO(text), batch_size)]


def batch_columns(batches):
    """Everything a batch carries, dtypes and ingress table included."""
    return [
        (batch.version, batch.ingress_table,
         None if batch.dst_ips is None else (batch.dst_ips.dtype, batch.dst_ips.tolist()),
         *((column.dtype, column.shape, column.tobytes()) for column in (
             batch.timestamps, batch.src_ips, batch.ingress_ids,
             batch.packet_counts, batch.byte_counts)))
        for batch in batches
    ]


def test_plain_file_takes_the_fast_tokeniser_and_quoted_file_the_csv_one():
    """The fast tokeniser is the byte pass: a plain file's chunks take it,
    a quoted file's the ``csv`` path; and a file whose middle chunk alone
    holds a quoted row mixes the two and still decodes, batch for batch,
    as the all-``csv`` file does."""
    rows = [["1.000", "10.0.0.1", "R1", "et0", "1", "64", ""]] * 5
    plain, quoted = render(rows), render(rows, quote_all=True)
    assert '"' not in plain and "\r" not in plain
    for batch_size in BATCH_SIZES:
        (a, __), (b, __) = decode(plain, batch_size), decode(quoted, batch_size)
        assert a == b == list(reference_read(io.StringIO(plain)))
    assert set(chunk_kinds(plain, 2)) == {"bytes"}
    assert set(chunk_kinds(quoted, 2)) == {"csv"}
    mixed = [[f"{index}.5", f"10.0.0.{index}", f"R{index % 3}", "et0", str(index), "64",
              "" if index % 4 else "10.9.9.9"] for index in range(12)]
    text = render(mixed[:4]) + render(mixed[4:5], quote_all=True).split("\n", 1)[1] + (
        render(mixed[5:]).split("\n", 1)[1])
    assert chunk_kinds(text, 4) == ["bytes", "bytes", "csv", "bytes"]
    everything_quoted = render(mixed, quote_all=True)
    for batch_size in (4, 5, 8192):
        assert batch_columns(read_flows_csv_batched(io.StringIO(text), batch_size)) == (
            batch_columns(read_flows_csv_batched(io.StringIO(everything_quoted), batch_size)))


GOOD = ["1.000", "10.0.0.1", "R1", "et0", "1", "64", "10.0.0.2"]
MALFORMED = {
    "short row": GOOD[:4],
    "long row": GOOD + ["extra"],
    "one field": ["x"],
    "bad timestamp": ["noon", *GOOD[1:]],
    "bad packets": [*GOOD[:4], "1.5", *GOOD[5:]],
    "bad bytes": [*GOOD[:5], "", GOOD[6]],
    "bad src": [GOOD[0], "999.0.0.1", *GOOD[2:]],
    "empty src": [GOOD[0], "", *GOOD[2:]],
    "non-ascii src": [GOOD[0], "1.2.3.４", *GOOD[2:]],
    "bad dst": [*GOOD[:6], "10.0.0"],
    "family mix": [*GOOD[:6], "::1"],
}


@pytest.mark.parametrize("kind", sorted(MALFORMED))
@pytest.mark.parametrize("batch_size", BATCH_SIZES)
@pytest.mark.parametrize("quote_all", [False, True])
def test_malformed_row_raises_value_error_naming_its_line(kind, batch_size, quote_all):
    rows = [GOOD, GOOD, GOOD, MALFORMED[kind], GOOD]
    text = render(rows, quote_all=quote_all, blanks={2})
    with pytest.raises(ValueError):
        list(reference_read(io.StringIO(text)))
    for stream in streams(text):
        # header is line 1, a blank line sits before row index 2, so the
        # fourth data row is file line 6
        with pytest.raises(ValueError, match=r"^flow CSV line 6: .*: \["):
            list(read_flows_csv_batched(stream, batch_size))


#: rows the replaced reader passed on, and the engine then refused by batch
#: row number: the decoder refuses them itself, naming the file line
NEGATIVE = {
    "negative packets": ([*GOOD[:4], "-1", *GOOD[5:]], "packet count -1 is negative"),
    "negative bytes": ([*GOOD[:5], "-500", GOOD[6]], "byte count -500 is negative"),
}


@pytest.mark.parametrize("kind", sorted(NEGATIVE))
@pytest.mark.parametrize("batch_size", BATCH_SIZES)
@pytest.mark.parametrize("quote_all", [False, True])
def test_negative_count_raises_value_error_naming_its_line(kind, batch_size, quote_all):
    row, reason = NEGATIVE[kind]
    text = render([GOOD, GOOD, GOOD, row, GOOD], quote_all=quote_all, blanks={2})
    assert len(list(reference_read(io.StringIO(text)))) == 5
    for stream in streams(text):
        with pytest.raises(ValueError, match=rf"^flow CSV line 6: {reason}: \["):
            list(read_flows_csv_batched(stream, batch_size))


@pytest.mark.parametrize(
    "text", ["x,y\n1,2\n", "\n" + render([GOOD]), render([GOOD]).replace("bytes", "octets")]
)
def test_bad_header_raises_on_both(text):
    with pytest.raises(ValueError):
        list(reference_read(io.StringIO(text)))
    with pytest.raises(ValueError, match="^flow CSV line 1: "):
        list(read_flows_csv_batched(io.StringIO(text)))


def test_empty_and_header_only_files_yield_nothing():
    for text in ["", render([]), render([], final_eol=False)]:
        assert list(read_flows_csv_batched(io.StringIO(text))) == []


def test_nonpositive_batch_size_rejected():
    with pytest.raises(ValueError):
        list(read_flows_csv_batched(io.StringIO(render([GOOD])), 0))


def test_address_memo_is_used_and_bounded(monkeypatch):
    """The memo serves what the dotted-quad byte pass does not: each
    distinct IPv6 text is parsed once while it fits the memo, a file with
    more distinct sources than the bound evicts instead of growing, and an
    all-IPv4 file never calls ``parse_ip``."""
    distinct = [format_ip((0x20010DB8 << 96) + index, 6) for index in range(20)]
    rows = [[GOOD[0], src, *GOOD[2:6], ""] for src in distinct * 3]
    text = render(rows)
    expected = list(reference_read(io.StringIO(text)))
    calls = []

    def counting_parse(address):
        calls.append(address)
        return parse_ip(address)

    monkeypatch.setattr(records, "parse_ip", counting_parse)
    assert list(read_flows_csv(io.StringIO(text))) == expected
    assert sorted(calls) == sorted(distinct)
    del calls[:]
    # cyclic access over a memo of 8 < 20 entries: every row is a miss
    monkeypatch.setattr(records, "_MEMO_LIMIT", 8)
    assert list(read_flows_csv(io.StringIO(text))) == expected
    assert len(calls) == len(rows)
    del calls[:]
    v4 = render([[GOOD[0], format_ip(0x0A000000 + index, 4), *GOOD[2:6], ""]
                 for index in range(20)] * 3)
    assert list(read_flows_csv(io.StringIO(v4))) == list(reference_read(io.StringIO(v4)))
    assert calls == []


def test_ingresses_are_interned_per_file():
    rows = [GOOD] * 4 + [[*GOOD[:2], "R2", *GOOD[3:]]] * 2
    (batch,) = read_flows_csv_batched(io.StringIO(render(rows)))
    assert len({id(ingress) for ingress in batch.ingresses}) == 2


canonical_quad = st.integers(0, (1 << 32) - 1).map(lambda value: format_ip(value, 4))
canonical_octet = st.integers(0, 255).map(str)
#: one octet as written where it is not canonical: zero-padded, past 255,
#: or no number at all (signs, spaces, non-ASCII digits, nothing)
odd_octet = st.one_of(
    st.tuples(canonical_octet, st.integers(1, 2)).map(lambda pair: "0" * pair[1] + pair[0]),
    st.integers(256, 1999).map(str),
    st.sampled_from(["", "+1", "-0", " 1", "1 ", "\t7", "４", "١", "1e2", "0x1"]),
)
address_text = st.one_of(
    # a quad with one octet spelt oddly
    st.tuples(st.lists(canonical_octet, min_size=4, max_size=4), st.integers(0, 3), odd_octet)
    .map(lambda drawn: ".".join([*drawn[0][:drawn[1]], drawn[2], *drawn[0][drawn[1] + 1:]])),
    st.lists(canonical_octet, min_size=3, max_size=5).map(".".join),
    st.integers(0, (1 << 128) - 1).map(lambda value: format_ip(value, 6)),
    st.sampled_from(["", "1.2.3.４", "::ffff:1.2.3.4", "1.2.3.4\n5.6.7.8", "1.2.3.4,"]),
)


@settings(max_examples=400, deadline=None)
@given(st.one_of(
    st.lists(canonical_quad, max_size=40),
    # canonical quads around one other text
    st.tuples(st.lists(canonical_quad, max_size=20), address_text, st.integers(0, 20))
    .map(lambda drawn: [*drawn[0][:drawn[2]], drawn[1], *drawn[0][drawn[2]:]]),
    st.lists(address_text, max_size=10),
))
@example(["1.2.3.4", "1000.2.3.4"])  # a fourth digit weighs nothing
@example(["10.0.0.1", "1.2.3.0255"])
def test_ipv4_column_agrees_with_parse_ip(texts):
    """The byte pass answers exactly when every text ``parse_ip``s as
    IPv4, and then with ``parse_ip``'s values; a text that keeps its chunk
    off the byte pass (a delimiter, a non-ASCII byte) is no address."""
    try:
        parsed = list(map(parse_ip, texts))
    except ValueError:
        parsed = None
    lines = [f"1.000,{text},R1,et0,1,64,\n" for text in texts]
    chunk = records._plain("".join(lines), len(lines)) if texts else None
    column = None if chunk is None else chunk.convert(records._ipv4_column, 1, 1)
    if parsed is None or any(version != 4 for __, version in parsed):
        assert column is None
    elif texts:
        assert column.dtype == np.uint64
        assert column.tolist() == [value for value, __ in parsed]


#: spellings of the number columns, and what the bulk conversion makes of
#: each as a timestamp and as a count: ``float()`` / ``int()``'s value, or
#: the error they raise (a count past int64 is the one ``int()`` takes)
NUMBER_SPELLINGS = {
    " 12.5": (12.5, ValueError),
    "1e3": (1000.0, ValueError),
    "1_0": (10.0, 10),
    "+3": (3.0, 3),
    "١": (1.0, 1),
    "nan": (math.nan, ValueError),
    "inf": (math.inf, ValueError),
    "1e400": (math.inf, ValueError),
    "0x10": (ValueError, ValueError),
    "": (ValueError, ValueError),
    "1.5": (1.5, ValueError),
    str(2**63): (2.0**63, OverflowError),
}


def outcome(convert, text):
    try:
        value = convert(text)
    except (ValueError, OverflowError) as error:
        return type(error)
    return math.nan if value != value else value


@pytest.mark.parametrize("text", sorted(NUMBER_SPELLINGS))
def test_number_columns_take_each_spelling_as_float_and_int_do(text):
    stamp, count = NUMBER_SPELLINGS[text]
    bulk = {dtype: outcome(lambda t: np.array([t], dtype=dtype)[0].item(), text)
            for dtype in (np.float64, np.int64)}
    assert repr(bulk[np.float64]) == repr(outcome(float, text)) == repr(stamp)
    assert bulk[np.int64] == count
    assert outcome(int, text) == (2**63 if count is OverflowError else count)
    # the decoder's columns: the same value, or the row's line named
    for column, want in ((0, stamp), (4, count)):
        row = [*GOOD[:column], text, *GOOD[column + 1:]]
        stream = io.StringIO(render([GOOD, row]))
        if isinstance(want, type):
            with pytest.raises(ValueError, match=r"^flow CSV line 3: "):
                list(read_flows_csv(stream))
        else:
            flow = list(read_flows_csv(stream))[1]
            got = flow.timestamp if column == 0 else flow.packets
            assert type(got) is type(want) and repr(got) == repr(want)


#: field spellings the byte converters must answer exactly or hand back:
#: plain ones, and every kind their fallbacks take (signs, exponents,
#: underscores, leading zeros, mantissas of 2**53 and more, over 15
#: fraction digits, nan / inf, a bare dot side, non-ASCII digits, empty)
stamp_text = st.one_of(
    st.integers(0, 10**6).map(str),
    st.tuples(st.integers(0, 10**9), st.integers(0, 10**6)).map("{0[0]}.{0[1]:03d}".format),
    st.integers(2**53 - 3, 10**17).map(lambda value: f"{str(value)[:-1]}.{str(value)[-1]}"),
    st.sampled_from([
        "+1.5", "-2", "-0.0", "1e3", "2.5E-3", "1_0.5", "007.50", "00000000000000001",
        "9007199254740993", "9007199254740992", "0.1234567890123456789", "nan", "inf",
        "-inf", ".5", "5.", "1.2.3", "١٢.٥", "", " 12.5", "12.5 ", "0x10",
    ]),
)
count_text = st.one_of(
    st.integers(0, 10**18 - 1).map(str),
    st.integers(10**18, 2**63 + 5).map(str),  # 19 digits, past int64 at the top
    st.sampled_from(["007", "+3", "1_0", "١", "", "-1", "1.5", "0", "000000000000000000"]),
)
#: "router,interface" spans of 16 and 17 bytes, and short ones
ingress_text = st.sampled_from([
    ("R1", "et0"), ("C3-R5", "hu6"), ("RRRRRRRR", "iiiiiii"), ("RRRRRRRR", "iiiiiiii"),
    ("RRRRRRRRR", "iiiiiii"), ("R", "i"), ("", ""), ("0", ""), ("R1", "et0\0"),
])


@st.composite
def plain_row(draw):
    family = draw(st.sampled_from([V4, V4, V4, V6]))
    router, interface = draw(ingress_text)
    dst = draw(st.sampled_from(["", "", draw(st.sampled_from(family)), draw(st.sampled_from(V6))]))
    return [draw(stamp_text), draw(st.one_of(st.sampled_from(family), canonical_quad, address_text)),
            router, interface, draw(count_text), draw(count_text), dst]


def expected_batches(rows, batch_size):
    """``FlowBatch.from_flows`` over the reference rows, cut where the
    decoder cuts: at every *batch_size* rows and at family changes."""
    flows = list(reference_read(io.StringIO(render(rows))))
    if not all(0 <= count < 2**63 for flow in flows for count in (flow.packets, flow.bytes)):
        raise ValueError("a count outside int64 or negative")
    for start in range(0, len(flows), batch_size):
        chunk = flows[start:start + batch_size]
        runs = itertools.groupby(chunk, key=lambda flow: flow.version)
        yield from (FlowBatch.from_flows(run) for __, run in runs)


@settings(max_examples=300, deadline=None)
@given(st.lists(plain_row(), min_size=1, max_size=25), st.sampled_from([1, 3, 8192]))
def test_byte_converters_yield_the_batches_of_float_int_parse_ip_and_ingress_point(rows, batch_size):
    """On plain chunks, the byte pass with its per-column fallbacks must
    build the batches the Python conversions build, row for row: same
    columns, dtypes and first-seen ingress tables, or a ``ValueError``
    naming a line where any conversion refuses a field."""
    text = render(rows)
    try:
        expected = batch_columns(expected_batches(rows, batch_size))
    except (ValueError, OverflowError):
        with pytest.raises(ValueError, match=r"^flow CSV line \d+: "):
            list(read_flows_csv_batched(io.StringIO(text), batch_size))
        return
    assert batch_columns(read_flows_csv_batched(io.StringIO(text), batch_size)) == expected


def test_a_hash_collision_cannot_merge_two_ingresses(monkeypatch, tmp_path):
    """With every ingress key hashed alike, the exact byte check refuses
    the grouping and the text interning takes over, so a Zipf trace decodes
    to the batches and tables of the unpatched byte pass."""
    scenario = default_scenario(duration_hours=0.05, flows_per_bucket_peak=600, seed=7)
    path = tmp_path / "flows.csv"
    with open(path, "w") as stream:
        write_flows_csv(scenario.generator().flows(), stream)
    interned = []
    real_intern = records._intern
    monkeypatch.setattr(records, "_intern", lambda *args: interned.append(1) or real_intern(*args))

    def batches():
        with open(path) as stream:
            return batch_columns(read_flows_csv_batched(stream, 128))

    expected = batches()
    assert len(expected) > 2 and not interned
    assert max(len(table) for __, table, *__ in expected) > 1
    monkeypatch.setattr(records, "_key_hash", lambda words: np.zeros(len(words), np.uint64))
    assert batches() == expected
    assert len(interned) == len(expected)
