"""The wire transcript: every verb's reply bytes against the old renderer.

``_format_hit`` below is the line renderer the server used before answer
lines were memoised per epoch, kept only here as the reference (the way
``tests/netflow/test_csv_differential.py`` keeps the row-wise CSV
reader).  Every ``GET``, ``MGET`` and ``AT`` reply must equal, byte for
byte, that renderer applied to the in-process API's answer
(``lookup`` / ``lookup_at``) for the same epoch — over disjoint prefixes
of both families, adjacent ones included, the confidence shapes ``.6g``
renders differently, zero and non-zero ages, and every row's edges.  Two epochs that share
their compiled tables are transcribed one after the other, so a line
memoised for one epoch and served in another fails here too.  The
request language is pinned as well: a non-finite ``AT`` timestamp is an
``ERR``, and an archive index left with ``compiled`` blob entries by an
older build answers ``AT`` exactly like a plain one.  Overlapping records
are refused: an install of them raises and keeps the previous epoch, and
an ``AT`` over an archived snapshot of them (one an older build stored)
is an ``ERR`` naming both.
"""

import asyncio
import gzip
import io
import json

import pytest

from repro.archive import SnapshotArchive
from repro.core.iputil import IPV4, Prefix, format_ip, parse_ip
from repro.core.output import IPDRecord, write_records_csv
from repro.core.snapshot import Snapshot
from repro.serving import IngressLookupService, LookupServer, ServingEpoch
from repro.topology.elements import IngressPoint

WHEN = 1000.0

#: (prefix, ingress, confidence, row timestamp): disjoint prefixes in
#: both families — the first and last addresses of the space, adjacent
#: siblings, a host route — confidence 1.0 / 0.95 / tiny / seven digits,
#: and rows as old as the watermark (age 0) or older
ROWS = [
    ("0.0.0.0/30", IngressPoint("R4", "et9"), 0.5, WHEN),
    ("10.0.0.0/16", IngressPoint("R1", "et0"), 1.0, WHEN),
    ("10.1.0.0/16", IngressPoint("R2", "xe-0/0/1"), 0.95, 876.544),
    ("10.2.2.0/25", IngressPoint("R1", "et0"), 0.123456789, 0.5),
    ("10.2.2.128/25", IngressPoint("R3", "et1+et2"), 1e-7, WHEN),
    ("192.0.2.7/32", IngressPoint("ber-ř1", "et0"), 0.95, 999.9999),
    ("255.255.255.252/30", IngressPoint("R4", "et9"), 1.0, 12.0),
    ("2001:db8::/48", IngressPoint("R1", "et0"), 1.0, WHEN),
    ("2001:db8:1::/48", IngressPoint("R2", "et0"), 0.95, 123.0),
    ("2001:db8:2:2::/64", IngressPoint("R3", "et0"), 3.3e-9, WHEN),
]
#: a range nested in ROWS' 10.1.0.0/16
NESTED = ("10.1.2.0/24", IngressPoint("R3", "et1+et2"), 1e-7, WHEN)
MISSES = ["99.0.0.1", "128.0.0.0", "3fff::1", "::1"]


def _format_hit(result, epoch):
    """The server's line renderer before the per-epoch memo (reference)."""
    if result is None:
        return f"MISS {epoch}"
    ingress = result.ingress
    return (
        f"HIT {ingress.router} {ingress.interface} {result.prefix} "
        f"{result.confidence:.6g} {result.age:.6g} {result.epoch}"
    )


def records(rows=ROWS):
    return [
        IPDRecord(
            timestamp=timestamp,
            range=Prefix.from_string(cidr),
            ingress=ingress,
            s_ingress=confidence,
            s_ipcount=32,
            n_cidr=4,
            candidates=(),
            classified=True,
        )
        for cidr, ingress, confidence, timestamp in rows
    ]


def probe_addresses():
    """Each row's first and last address, one past each end, and misses."""
    texts = []
    for cidr, *__ in ROWS:
        prefix = Prefix.from_string(cidr)
        bits = 32 if prefix.version == IPV4 else 128
        first = prefix.value
        last = first + (1 << (bits - prefix.masklen)) - 1
        for value in (first - 1, first, last, last + 1):
            if 0 <= value < 1 << bits:
                texts.append(format_ip(value, prefix.version))
    return texts + MISSES


def reference_get(service, text):
    value, version = parse_ip(text)
    result = service.lookup(value, version)
    return _format_hit(result, service.current.epoch) + "\n"


def reference_at(service, timestamp, text):
    value, version = parse_ip(text)
    result = service.lookup_at(timestamp, value, version)
    return _format_hit(result, -1) + "\n"


def converse(service, conversation):
    """Run ``conversation(ask)`` against a live server on loopback, where
    ``await ask(request, lines)`` returns the raw bytes of *lines*
    reply lines."""

    async def run():
        server = LookupServer(service)
        host, port = await server.start()
        reader, writer = await asyncio.open_connection(host, port)

        async def ask(request, lines):
            writer.write(request.encode() + b"\n")
            await writer.drain()
            return b"".join([await reader.readline() for _ in range(lines)])

        try:
            return await conversation(ask)
        finally:
            writer.close()
            await server.stop()

    return asyncio.run(run())


def test_every_verb_replies_the_old_renderers_bytes(tmp_path):
    archive = SnapshotArchive(tmp_path / "arch")
    archive.append(WHEN, records())
    service = IngressLookupService(archive=archive)
    first = service.install_snapshot(Snapshot(WHEN, records(), epoch=3))
    # same compiled tables, another id and watermark
    second = ServingEpoch(
        8, WHEN + 250.25, {v: first.table(v) for v in first.families()}
    )
    texts = probe_addresses()
    checked, mismatches = [], []

    async def talk(ask):
        async def check(request, lines, want):
            got = await ask(request, lines)
            checked.append(request)
            if got != want.encode():
                mismatches.append((request, got, want))

        for epoch in (first, second, first):
            service.install(epoch)
            for text in texts:
                await check(f"GET {text}", 1, reference_get(service, text))
            want = "".join(reference_get(service, t) for t in texts)
            await check("MGET " + " ".join(texts), len(texts) + 1,
                        want + f"END {epoch.epoch}\n")
            for when in (WHEN - 1.0, WHEN, WHEN + 5.0):
                for text in texts:
                    await check(f"AT {when} {text}", 1,
                                reference_at(service, when, text))

    converse(service, talk)
    assert len(checked) == 3 * (4 * len(texts) + 1)
    assert not mismatches, mismatches[:5]


def test_memo_is_scoped_to_its_epoch():
    """Same rows, another watermark and id: the new epoch's lines carry
    its own age and id, whether it recompiled or shares the tables, and
    the old epoch keeps its own when it is installed again."""
    service = IngressLookupService()
    first = service.install_snapshot(Snapshot(WHEN, records(), epoch=1))
    shared = ServingEpoch(
        2, WHEN + 100.0, {v: first.table(v) for v in first.families()}
    )
    recompiled = ServingEpoch.from_snapshot(
        Snapshot(WHEN + 7.5, records(), epoch=3)
    )

    async def talk(ask):
        replies = []
        for epoch in (first, shared, recompiled, first):
            service.install(epoch)
            replies.append(
                await ask("GET 10.1.0.1", 1)
                + await ask("MGET 99.0.0.1 10.1.0.1", 3)
            )
        return replies

    hit = b"HIT R2 xe-0/0/1 10.1.0.0/16 0.95 %s %d\n"
    assert converse(service, talk) == [
        hit % (age, epoch) + b"MISS %d\n" % epoch + hit % (age, epoch)
        + b"END %d\n" % epoch
        for age, epoch in ((b"123.456", 1), (b"223.456", 2),
                           (b"130.956", 3), (b"123.456", 1))
    ]


def test_stats_counts_a_fixed_session_like_before(tmp_path):
    """Queries after GET + MGET + AT + errors, as the server counted them
    before the reply path was merged: every GET or MGET address once, AT
    and malformed requests never."""
    archive = SnapshotArchive(tmp_path / "arch")
    archive.append(WHEN, records())
    service = IngressLookupService(archive=archive)
    service.install_snapshot(Snapshot(WHEN, records(), epoch=1))
    session = [
        ("GET 10.1.2.3", 1),
        ("GET 99.0.0.1", 1),
        ("GET 2001:db8::1", 1),
        ("MGET 10.1.2.3 150.0.0.1 2001:db8::1 8000::1 225.0.0.1", 6),
        ("MGET 10.1.2.3 bogus", 1),
        ("GET bogus", 1),
        (f"AT {WHEN} 10.1.2.3", 1),
        ("FROB 1", 1),
    ]

    async def talk(ask):
        for request, lines in session:
            await ask(request, lines)
        return json.loads(await ask("STATS", 1))

    stats = converse(service, talk)
    assert stats["queries"] == 8
    assert sorted(stats) == [
        "epoch", "families", "installs", "queries", "rows", "watermark",
    ]


def test_non_finite_at_timestamp_is_an_error(tmp_path):
    """``nan`` fails every comparison in the snapshot bisect, so it used
    to answer from the newest snapshot; ``inf`` did too.  All three are
    refused, the connection stays open and no query is counted."""
    archive = SnapshotArchive(tmp_path / "arch")
    archive.append(100.0, records())
    archive.append(200.0, records()[:1])
    service = IngressLookupService(archive=archive)
    service.install_snapshot(Snapshot(WHEN, records(), epoch=1))
    err = b"ERR timestamp must be finite\n"

    async def talk(ask):
        return [await ask(request, 1) for request in (
            "AT 150 10.2.2.131", "AT nan 10.2.2.131", "AT inf 10.2.2.131",
            "AT -inf 10.2.2.131", "AT NaN 2001:db8::1", "AT 250 10.2.2.131",
            "GET 10.2.2.131",
        )]

    assert converse(service, talk) == [
        b"HIT R3 et1+et2 10.2.2.128/25 0 0 -1\n",  # the CSV rounds 1e-07
        err, err, err, err,
        b"MISS -1\n",
        b"HIT R3 et1+et2 10.2.2.128/25 1e-07 0 1\n",
    ]
    assert service.queries == 1


def test_archive_with_legacy_compiled_blobs_answers_like_a_plain_one(tmp_path):
    """An index written by an older build carries a ``compiled`` map of
    per-snapshot ``.lpm`` blob files next to the CSV partition.  They are
    ignored: here each blob is a well-formed *empty* table, so an archive
    that still read them would answer every ``AT`` with ``MISS``."""
    plain = SnapshotArchive(tmp_path / "plain")
    legacy = SnapshotArchive(tmp_path / "legacy")
    for archive in (plain, legacy):
        archive.append(WHEN, records())
        archive.append(WHEN + 300.0, records()[1:5])
    index_path = tmp_path / "legacy" / "index.json"
    index = json.loads(index_path.read_text())
    (day,) = index
    for sequence, when in enumerate(index[day]["snapshots"]):
        blobs = {}
        for family in ("4", "6"):
            name = f"{day}.{sequence:05d}.v{family}.lpm"
            # magic, kind 'C', u16 version 1, family, zero rows
            (tmp_path / "legacy" / name).write_bytes(
                b"IPDLC\x00\x01" + bytes([int(family), 0])
            )
            blobs[family] = name
        index[day].setdefault("compiled", {})[repr(when)] = blobs
    index_path.write_text(json.dumps(index, sort_keys=True))

    requests = [
        f"AT {when} {text}"
        for when in (WHEN - 1.0, WHEN, WHEN + 299.5, WHEN + 300.0)
        for text in probe_addresses()
    ]

    def transcript(archive):
        async def talk(ask):
            return [await ask(request, 1) for request in requests]

        return converse(IngressLookupService(archive=archive), talk)

    reopened = SnapshotArchive(tmp_path / "legacy")
    assert reopened.snapshot_times() == [WHEN, WHEN + 300.0]
    want = transcript(plain)
    assert sum(line.startswith(b"HIT") for line in want) > len(requests) // 3
    assert transcript(reopened) == want


def test_installing_overlapping_records_keeps_the_previous_epoch():
    """A snapshot whose ranges overlap is refused while its epoch is
    built, so nothing is published: the previous epoch keeps serving."""
    service = IngressLookupService()
    first = service.install_snapshot(Snapshot(WHEN, records(), epoch=1))
    with pytest.raises(ValueError, match=r"10\.1\.0\.0/16 and 10\.1\.2\.0/24"):
        service.install_snapshot(
            Snapshot(WHEN + 300.0, records([NESTED, *ROWS]), epoch=2)
        )
    assert service.current is first and service.installs == 1
    assert service.lookup(parse_ip("10.1.2.3")[0]).prefix == Prefix.from_string(
        "10.1.0.0/16"
    )


def append_unchecked(root, timestamp, rows):
    """Append a snapshot to the archive at *root* the way an older build
    did, with no overlap check: its records, restamped, to the day's
    partition and its time to the index."""
    buffer = io.StringIO()
    write_records_csv(records([(*row[:3], timestamp) for row in rows]), buffer)
    index_path = root / "index.json"
    index = json.loads(index_path.read_text())
    (entry,) = index.values()
    with gzip.open(root / entry["file"], "at") as stream:
        stream.write(buffer.getvalue().split("\n", 1)[1])
    entry["snapshots"].append(timestamp)
    entry["records"] += len(rows)
    index_path.write_text(json.dumps(index, sort_keys=True))


def test_at_over_overlapping_archived_records_is_an_error(tmp_path):
    """An archived snapshot whose ranges overlap (``append`` refuses one,
    an older build stored it) answers ``AT`` with an ``ERR`` naming both
    prefixes; the connection stays open and the clean snapshot beside it
    still answers."""
    SnapshotArchive(tmp_path / "arch").append(WHEN, records())
    append_unchecked(tmp_path / "arch", WHEN + 300.0, [*ROWS, NESTED])
    archive = SnapshotArchive(tmp_path / "arch")
    service = IngressLookupService(archive=archive)
    service.install_snapshot(Snapshot(WHEN, records(), epoch=1))

    async def talk(ask):
        return [await ask(request, 1) for request in (
            f"AT {WHEN} 10.1.0.1", f"AT {WHEN + 300.0} 10.1.0.1",
            f"AT {WHEN + 300.0} 2001:db8::1", "GET 10.1.0.1",
        )]

    hit = b"HIT R2 xe-0/0/1 10.1.0.0/16 0.95 %s %d\n"
    at, refused, other_family, get = converse(service, talk)
    # archived records carry their snapshot's time: an AT answer's age is 0
    assert at == hit % (b"0", -1) and get == hit % (b"123.456", 1)
    assert refused.startswith(
        b"ERR overlapping ranges 10.1.0.0/16 and 10.1.2.0/24: "
    )
    assert other_family == b"HIT R1 et0 2001:db8::/48 1 0 -1\n"
