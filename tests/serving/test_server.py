"""LookupServer: the line protocol end to end over real sockets.

Each test spins up the asyncio server on an ephemeral port, speaks the
protocol through an actual TCP connection, and shuts down cleanly; the
bulk-query test pins that MGET answers from exactly one epoch even when
an install lands mid-request.  The framing, lifecycle and connection
limit tests use hostile clients (pipelining, byte-by-byte, never
reading, slow-loris, garbage, idle floods) beside a bystander that must
keep being served.
"""

import asyncio
import json
import random
import socket

from repro.core.iputil import IPV4, Prefix
from repro.core.output import IPDRecord
from repro.core.snapshot import Snapshot
from repro.serving import IngressLookupService, LookupServer, ServingEpoch
from repro.serving.server import MAX_LINE_BYTES
from repro.topology.elements import IngressPoint

R1 = IngressPoint("R1", "et0")
R2 = IngressPoint("R2", "et0")


def record(cidr, ingress, timestamp=100.0):
    return IPDRecord(
        timestamp=timestamp,
        range=Prefix.from_string(cidr),
        ingress=ingress,
        s_ingress=0.9,
        s_ipcount=32,
        n_cidr=4,
        candidates=(),
        classified=True,
    )


def service_with(ingress=R1, when=200.0, epoch=1):
    service = IngressLookupService()
    service.install_snapshot(
        Snapshot(
            when,
            [
                record("10.0.0.0/8", ingress, timestamp=when),
                record("2001:db8::/32", ingress, timestamp=when),
            ],
            epoch=epoch,
            source="test",
        )
    )
    return service


class Client:
    def __init__(self, reader, writer):
        self.reader = reader
        self.writer = writer

    async def ask(self, line):
        self.writer.write((line + "\n").encode())
        await self.writer.drain()
        return (await self.reader.readline()).decode().strip()

    async def lines(self, line, count):
        self.writer.write((line + "\n").encode())
        await self.writer.drain()
        return [
            (await self.reader.readline()).decode().strip()
            for _ in range(count)
        ]


async def run_session(service, conversation):
    server = LookupServer(service)
    host, port = await server.start()
    reader, writer = await asyncio.open_connection(host, port)
    try:
        return await conversation(Client(reader, writer), service)
    finally:
        writer.close()
        await server.stop()


class TestProtocol:
    def test_get_hit_and_miss(self):
        async def talk(client, service):
            assert await client.ask("GET 10.1.2.3") == (
                "HIT R1 et0 10.0.0.0/8 0.9 0 1"
            )
            assert await client.ask("GET 99.0.0.1") == "MISS 1"
            assert await client.ask("GET 2001:db8::42") == (
                "HIT R1 et0 2001:db8::/32 0.9 0 1"
            )

        asyncio.run(run_session(service_with(), talk))

    def test_mget_one_line_per_address_plus_end(self):
        async def talk(client, service):
            lines = await client.lines("MGET 10.1.2.3 99.0.0.1 10.0.0.1", 4)
            assert lines[0].startswith("HIT R1")
            assert lines[1] == "MISS 1"
            assert lines[2].startswith("HIT R1")
            assert lines[3] == "END 1"

        asyncio.run(run_session(service_with(), talk))

    def test_stats_is_json(self):
        async def talk(client, service):
            await client.ask("GET 10.1.2.3")
            payload = json.loads(await client.ask("STATS"))
            assert payload["epoch"] == 1
            assert payload["queries"] == 1
            assert payload["watermark"] == 200.0

        asyncio.run(run_session(service_with(), talk))

    def test_at_historical_query(self, tmp_path):
        from repro.archive import SnapshotArchive

        archive = SnapshotArchive(tmp_path / "arch")
        archive.append(100.0, [record("10.0.0.0/8", R2, timestamp=100.0)])
        service = IngressLookupService(archive=archive)
        service.install_snapshot(
            Snapshot(300.0, [record("10.0.0.0/8", R1, timestamp=300.0)],
                     epoch=5)
        )

        async def talk(client, service):
            # live answer is R1; the archived history answers R2
            assert (await client.ask("GET 10.1.2.3")).startswith("HIT R1")
            historical = await client.ask("AT 150 10.1.2.3")
            assert historical.startswith("HIT R2")
            assert historical.endswith("-1")  # historical epoch marker
            assert await client.ask("AT 50 10.1.2.3") == "MISS -1"

        asyncio.run(run_session(service, talk))

    def test_errors_keep_the_connection_open(self):
        async def talk(client, service):
            assert (await client.ask("FROB 1")).startswith("ERR")
            assert (await client.ask("GET not-an-ip")).startswith("ERR")
            assert (await client.ask("GET")).startswith("ERR")
            # still serving after three errors
            assert (await client.ask("GET 10.1.2.3")).startswith("HIT")

        asyncio.run(run_session(service_with(), talk))

    def test_no_epoch_installed_is_a_protocol_error(self):
        async def talk(client, service):
            assert await client.ask("GET 10.1.2.3") == "ERR no epoch installed"

        asyncio.run(run_session(IngressLookupService(), talk))

    def test_quit_closes_the_connection(self):
        async def talk(client, service):
            client.writer.write(b"QUIT\n")
            await client.writer.drain()
            assert await client.reader.readline() == b""

        asyncio.run(run_session(service_with(), talk))


class TestInputLimits:
    def test_oversized_line_is_refused_and_the_connection_closed(self):
        """A line that outruns the cap: one typed answer, then EOF — and
        nobody else notices (no unhandled exception, others keep talking)."""
        unhandled = []

        async def talk(client, service):
            asyncio.get_running_loop().set_exception_handler(
                lambda loop, context: unhandled.append(context)
            )
            address = client.writer.get_extra_info("peername")[:2]
            bystander = Client(*await asyncio.open_connection(*address))
            try:
                assert (await bystander.ask("GET 10.1.2.3")).startswith("HIT")
                # unterminated, so the server has read every byte when it
                # gives up and the close is a clean FIN, not a reset
                client.writer.write(b"GET " + b"1" * (MAX_LINE_BYTES - 3))
                await client.writer.drain()
                assert await client.reader.readline() == b"ERR line too long\n"
                assert await client.reader.read() == b""
                assert (await bystander.ask("GET 10.1.2.3")).startswith("HIT")
                newcomer = Client(*await asyncio.open_connection(*address))
                assert await newcomer.ask("GET 99.0.0.1") == "MISS 1"
                newcomer.writer.close()
            finally:
                bystander.writer.close()

        asyncio.run(run_session(service_with(), talk))
        assert unhandled == []

    def test_mget_up_to_the_cap_is_answered(self):
        """The cap is the only bound on MGET arity: a request line of
        exactly MAX_LINE_BYTES is a normal request."""
        count = (MAX_LINE_BYTES - len("MGET")) // len(" 10.1.2.3")
        request = ("MGET" + " 10.1.2.3" * count).ljust(MAX_LINE_BYTES)
        assert len(request) == MAX_LINE_BYTES

        async def talk(client, service):
            lines = await client.lines(request, count + 1)
            assert lines[-1] == "END 1"
            assert set(lines[:-1]) == {"HIT R1 et0 10.0.0.0/8 0.9 0 1"}
            assert (await client.ask("GET 10.1.2.3")).startswith("HIT")

        asyncio.run(run_session(service_with(), talk))

    def test_invalid_utf8_is_a_protocol_error(self):
        async def talk(client, service):
            client.writer.write(b"GET \xff\xfe10.1.2.3\n\xc3\x28 1\n")
            await client.writer.drain()
            for _ in range(2):
                assert (await client.reader.readline()).startswith(b"ERR ")
            assert (await client.ask("GET 10.1.2.3")).startswith("HIT")

        asyncio.run(run_session(service_with(), talk))


async def closed(reader):
    """True once *reader* reaches the end of the stream.  A server that
    hangs up with bytes of ours still unread closes with a reset."""
    try:
        return await asyncio.wait_for(reader.read(), 2.0) == b""
    except ConnectionResetError:
        return True


async def connect(address):
    return Client(*await asyncio.open_connection(*address))


class TestFraming:
    def test_pipelined_gets_are_answered_in_order(self):
        texts = [f"10.0.0.{n}" if n % 3 else f"99.0.0.{n}" for n in range(100)]

        async def talk(client, service):
            client.writer.write(
                "".join(f"GET {text}\n" for text in texts).encode()
            )
            return [
                (await client.reader.readline()).decode().strip()
                for _ in texts
            ]

        replies = asyncio.run(run_session(service_with(), talk))
        assert replies == [
            "HIT R1 et0 10.0.0.0/8 0.9 0 1" if n % 3 else "MISS 1"
            for n in range(100)
        ]

    def test_a_request_in_one_byte_writes(self):
        async def talk(client, service):
            for byte in b"GET 10.1.2.3\n":
                client.writer.write(bytes([byte]))
                await client.writer.drain()
                await asyncio.sleep(0.001)
            return await client.reader.readline()

        assert asyncio.run(run_session(service_with(), talk)) == (
            b"HIT R1 et0 10.0.0.0/8 0.9 0 1\n"
        )

    def test_an_unterminated_last_request_is_answered_at_eof(self):
        async def talk(client, service):
            client.writer.write(b"GET 99.0.0.1\nGET 10.1.2.3")
            client.writer.write_eof()
            return await asyncio.wait_for(client.reader.read(), 2.0)

        assert asyncio.run(run_session(service_with(), talk)) == (
            b"MISS 1\nHIT R1 et0 10.0.0.0/8 0.9 0 1\n"
        )

    def test_cap_length_line_with_its_newline_in_the_next_segment(self):
        count = (MAX_LINE_BYTES - len("MGET")) // len(" 10.1.2.3")
        request = ("MGET" + " 10.1.2.3" * count).ljust(MAX_LINE_BYTES)

        async def talk(client, service):
            client.writer.write(request.encode())
            await client.writer.drain()
            await asyncio.sleep(0.05)  # the server reads all of it
            client.writer.write(b"\n")
            lines = [await client.reader.readline() for _ in range(count + 1)]
            assert lines[-1] == b"END 1\n"
            assert (await client.ask("GET 99.0.0.1")) == "MISS 1"

        asyncio.run(run_session(service_with(), talk))

    def test_an_overlong_line_inside_a_read_ends_the_connection(self):
        async def talk(client, service):
            client.writer.write(
                b"GET 10.1.2.3\nGET 99.0.0.1\n"
                + b"GET " + b"1" * MAX_LINE_BYTES + b"\n"
                + b"GET 10.1.2.3\n"
            )
            lines = [await client.reader.readline() for _ in range(3)]
            assert lines == [
                b"HIT R1 et0 10.0.0.0/8 0.9 0 1\n",
                b"MISS 1\n",
                b"ERR line too long\n",
            ]
            assert await closed(client.reader)

        asyncio.run(run_session(service_with(), talk))

    def test_a_peer_that_never_reads_pauses_the_server(self):
        """Pipelined MGETs, replies never read: the server stops reading
        that peer once its write buffer is full, the buffer stays bounded
        by the high-water mark plus one read's replies, and a bystander
        is served meanwhile."""
        mget = b"MGET" + b" 10.1.2.3" * 64 + b"\n"
        sent = mget * (8 * 1024 * 1024 // len(mget))  # ≈ 28 MB of replies

        async def session():
            server = LookupServer(service_with())
            address = await server.start()
            sock = socket.socket()
            # a fixed small receive buffer: the kernel cannot soak up
            # the replies the server holds back
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 64 * 1024)
            sock.connect(address)
            sock.setblocking(False)
            client = Client(*await asyncio.open_connection(sock=sock))
            try:
                client.writer.write(sent)
                for _ in range(500):
                    await asyncio.sleep(0.01)
                    paused = [
                        connection for connection in server._connections
                        if not connection.transport.is_reading()
                    ]
                    if paused:
                        break
                (connection,) = paused
                bystander = await connect(address)
                for _ in range(5):
                    assert not connection.transport.is_reading()
                    buffered = connection.transport.get_write_buffer_size()
                    # the high-water mark plus the replies to one read
                    assert buffered <= 64 * 1024 + 4 * 256 * 1024
                    assert await bystander.ask("GET 99.0.0.1") == "MISS 1"
                    await asyncio.sleep(0.02)
                # it frames no line while paused, so the idle sweep closes
                # it; the close cannot flush, so the next sweep aborts it
                for _ in range(3):
                    assert await bystander.ask("GET 99.0.0.1") == "MISS 1"
                    server._sweep_idle()
                await asyncio.sleep(0.01)
                assert connection not in server._connections
                assert len(server._connections) == 1  # the bystander
                bystander.writer.close()
            finally:
                client.writer.transport.abort()
                await server.stop()

        asyncio.run(session())


class TestLifecycle:
    def test_stop_hangs_up_on_open_connections(self):
        async def session():
            server = LookupServer(service_with())
            client = await connect(await server.start())
            assert (await client.ask("GET 10.1.2.3")).startswith("HIT")
            await asyncio.wait_for(server.stop(), 2.0)
            assert await asyncio.wait_for(client.reader.read(), 2.0) == b""
            client.writer.close()

        asyncio.run(session())

    def test_cancelled_serve_forever_hangs_up_and_returns(self):
        async def session():
            server = LookupServer(service_with())
            client = await connect(await server.start())
            serving = asyncio.create_task(server.serve_forever())
            assert (await client.ask("GET 10.1.2.3")).startswith("HIT")
            serving.cancel()
            await asyncio.wait_for(
                asyncio.gather(serving, return_exceptions=True), 2.0
            )
            assert await asyncio.wait_for(client.reader.read(), 2.0) == b""
            client.writer.close()

        asyncio.run(session())


class TestConnectionLimits:
    """The connection cap and the idle sweep, over real sockets, each
    with a bystander that keeps being served."""

    def test_slow_loris_is_closed_while_a_bystander_is_served(self):
        """Bytes keep arriving but never finish a line: the second sweep
        closes the connection.  The sweeps are run by hand, each after a
        bystander round trip, so every byte sent has been read by then."""
        async def session():
            server = LookupServer(service_with())
            address = await server.start()
            loris, bystander = await connect(address), await connect(address)
            try:
                loris.writer.write(b"GET 10.")
                for _ in range(2):
                    loris.writer.write(b"1")
                    assert (await bystander.ask("GET 10.1.2.3")).startswith("HIT")
                    server._sweep_idle()
                assert await asyncio.wait_for(loris.reader.readline(), 2.0) == (
                    b"ERR idle timeout\n"
                )
                assert await closed(loris.reader)
                assert (await bystander.ask("GET 10.1.2.3")).startswith("HIT")
            finally:
                loris.writer.close()
                bystander.writer.close()
                await server.stop()

        asyncio.run(session())

    def test_garbage_is_answered_line_by_line_then_cut_at_the_cap(self):
        rng = random.Random(7)
        alphabet = bytes(range(0x21, 0x100))  # no whitespace, no newline
        lines = [
            b"\xff" + bytes(rng.choices(alphabet, k=rng.randrange(1, 200)))
            for _ in range(50)
        ]
        tail = bytes(rng.choices(alphabet, k=MAX_LINE_BYTES + 1))

        async def talk(client, service):
            address = client.writer.get_extra_info("peername")
            bystander = await connect(address)
            client.writer.write(b"\n".join(lines) + b"\n")
            for _ in lines:
                assert (await client.reader.readline()).startswith(b"ERR ")
            assert (await bystander.ask("GET 10.1.2.3")).startswith("HIT")
            client.writer.write(tail)
            assert await client.reader.readline() == b"ERR line too long\n"
            assert await closed(client.reader)
            assert (await bystander.ask("GET 10.1.2.3")).startswith("HIT")
            bystander.writer.close()

        asyncio.run(run_session(service_with(), talk))

    def test_idle_flood_to_the_cap_plus_one(self, monkeypatch):
        import repro.serving.server as server_module

        monkeypatch.setattr(server_module, "MAX_CONNECTIONS", 4)
        monkeypatch.setattr(server_module, "IDLE_SECONDS", 0.2)

        async def talk(client, service):
            address = client.writer.get_extra_info("peername")
            bystander = await connect(address)
            idle = [client, await connect(address), await connect(address)]
            for other in idle:
                assert (await other.ask("GET 99.0.0.1")) == "MISS 1"
            # four open: the fifth is answered and closed
            refused = await connect(address)
            assert await refused.reader.readline() == (
                b"ERR too many connections\n"
            )
            assert await closed(refused.reader)
            refused.writer.close()
            # the silent ones time out while the bystander keeps talking
            last_lines = [
                asyncio.ensure_future(other.reader.readline()) for other in idle
            ]
            for _ in range(200):
                assert (await bystander.ask("GET 10.1.2.3")).startswith("HIT")
                if all(line.done() for line in last_lines):
                    break
                await asyncio.sleep(0.01)
            assert [line.result() for line in last_lines] == (
                [b"ERR idle timeout\n"] * 3
            )
            for other in idle:
                assert await closed(other.reader)
            # the freed slots accept again
            newcomer = await connect(address)
            assert await newcomer.ask("GET 99.0.0.1") == "MISS 1"
            for other in idle + [newcomer, bystander]:
                other.writer.close()

        asyncio.run(run_session(service_with(), talk))


class TestSwapDuringQueries:
    def test_next_request_sees_the_new_epoch(self):
        async def talk(client, service):
            assert (await client.ask("GET 10.1.2.3")).endswith(" 1")
            service.install_snapshot(
                Snapshot(400.0, [record("10.0.0.0/8", R2, timestamp=400.0)],
                         epoch=2)
            )
            answer = await client.ask("GET 10.1.2.3")
            assert answer.startswith("HIT R2")
            assert answer.endswith(" 2")

        asyncio.run(run_session(service_with(), talk))

    def test_mget_pinned_to_one_epoch_across_concurrent_swaps(self):
        """Bulk answers never mix epochs, even with installs mid-MGET.

        A background task swaps epochs as fast as the loop allows while
        MGET requests stream; every response block must be internally
        consistent (all HIT lines name the same epoch as END).
        """
        service = service_with()
        epochs = [
            service.current,
            None,  # built inside the loop to reuse compile work
        ]
        epochs[1] = ServingEpoch.from_snapshot(
            Snapshot(400.0, [record("10.0.0.0/8", R2, timestamp=400.0)],
                     epoch=2, source="test")
        )
        ingress_of_epoch = {1: "R1", 2: "R2"}

        async def talk(client, service):
            stop = asyncio.Event()

            async def swapper():
                index = 0
                while not stop.is_set():
                    service.install(epochs[index & 1])
                    index += 1
                    await asyncio.sleep(0)

            task = asyncio.create_task(swapper())
            try:
                for _ in range(200):
                    lines = await client.lines(
                        "MGET 10.1.2.3 10.0.0.1 10.9.9.9 99.0.0.1", 5
                    )
                    end_epoch = int(lines[-1].split()[1])
                    want_router = ingress_of_epoch[end_epoch]
                    for line in lines[:-1]:
                        parts = line.split()
                        if parts[0] == "HIT":
                            assert parts[1] == want_router, lines
                            assert int(parts[-1]) == end_epoch, lines
                        else:
                            assert int(parts[1]) == end_epoch, lines
            finally:
                stop.set()
                await task

        asyncio.run(run_session(service, talk))
        assert service.installs > 2

    def test_an_install_inside_a_reply_does_not_reach_it(self, monkeypatch):
        """One epoch per reply, deterministically: the first epoch's IPv4
        table installs the second from inside its own lookup, so the rest
        of a mixed-family MGET, its END and a GET's MISS label all run
        after the swap — and must still name the first epoch."""
        service = service_with()
        first = service.current
        second = ServingEpoch.from_snapshot(
            Snapshot(400.0, [record("10.0.0.0/8", R2, timestamp=400.0),
                             record("2001:db8::/32", R2, timestamp=400.0)],
                     epoch=2)
        )

        class SwapOnLookup:
            def __init__(self, table):
                self.table = table

            def lookup_row(self, value):
                service.install(second)
                return self.table.lookup_row(value)

            def __getattr__(self, name):
                return getattr(self.table, name)

        monkeypatch.setitem(
            first._tables, IPV4, SwapOnLookup(first.table(IPV4))
        )

        async def talk(client, service):
            service.install(first)
            mixed = await client.lines("MGET 10.1.2.3 2001:db8::42 99.0.0.1", 4)
            service.install(first)
            return mixed, await client.ask("GET 99.0.0.1")

        mixed, miss = asyncio.run(run_session(service, talk))
        assert mixed == [
            "HIT R1 et0 10.0.0.0/8 0.9 0 1",
            "HIT R1 et0 2001:db8::/32 0.9 0 1",
            "MISS 1",
            "END 1",
        ]
        assert miss == "MISS 1"
        assert service.current is second  # the swaps did land
