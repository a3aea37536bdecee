"""The asyncio line-protocol front end of the lookup service.

A :class:`LookupServer` exposes an :class:`IngressLookupService` over a
newline-delimited text protocol (one request per line, telnet-able):

=============================  =============================================
request                        response
=============================  =============================================
``GET <ip>``                   ``HIT <router> <if> <prefix> <conf> <age>
                               <epoch>`` or ``MISS <epoch>``
``MGET <ip> [<ip> ...]``       one ``HIT``/``MISS`` line per address, then
                               ``END <epoch>`` — all answered from the
                               *same* epoch, even across a concurrent swap
``AT <timestamp> <ip>``        point-in-time ``HIT``/``MISS`` (epoch -1)
                               from the archive; the timestamp must be
                               finite
``STATS``                      one JSON line (epoch, watermark, families,
                               rows, installs, queries)
``QUIT``                       closes the connection
=============================  =============================================

Malformed input answers ``ERR <reason>`` and keeps the connection open.
Three limits answer a typed ``ERR`` and close it instead: a request
line longer than :data:`MAX_LINE_BYTES` (``ERR line too long``: the
stream can no longer be framed; this is also the only bound on ``MGET``
arity, about 4 000 IPv4 or 1 600 IPv6 addresses), a connection beyond
:data:`MAX_CONNECTIONS` (``ERR too many connections``) and one that
completes no line for :data:`IDLE_SECONDS` (``ERR idle timeout``; bytes
that never finish a line do not count, so a slow-loris client goes too).

Each connection is an :class:`asyncio.Protocol` with no task: a read is
split into lines, each complete line is answered from the epoch current
when it is framed (``GET`` is an ``MGET`` of one without ``END``), and
the replies to one read leave in one ``write``.  A connection holds the
unfinished line (≤ :data:`MAX_LINE_BYTES` plus one read) and its
transport's write buffer.  Past the buffer's 64 KiB high-water mark the
server stops reading from that peer until it drains, so a peer that
never reads holds the mark plus the replies to one read (≤ 256 KiB of
requests, ≈ 1 MB of replies).
"""

from __future__ import annotations

import asyncio
import json
from typing import Optional, cast

from ..core.iputil import parse_ip
from .service import IngressLookupService, NoEpochError, ServingError
from .service import answer_line

__all__ = ["IDLE_SECONDS", "MAX_CONNECTIONS", "MAX_LINE_BYTES", "LookupServer"]

#: longest request line accepted, its newline not counted
MAX_LINE_BYTES = 64 * 1024
#: open connections; one more is answered and closed
MAX_CONNECTIONS = 256
#: a connection completing no request line for one to two of these is
#: closed (one sweep a period: no timer per request, no clock read)
IDLE_SECONDS = 300.0


class LookupServer:
    """Serve an :class:`IngressLookupService` on a TCP socket."""

    def __init__(
        self,
        service: IngressLookupService,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.service = service
        self.host = host
        self.port = port
        self._server: Optional[asyncio.AbstractServer] = None
        self._connections: set[_Connection] = set()
        self._sweep: Optional[asyncio.TimerHandle] = None

    # ---------------------------------------------------------- lifecycle

    async def start(self) -> tuple[str, int]:
        """Bind and start accepting; returns the bound ``(host, port)``.

        ``port=0`` binds an ephemeral port — the return value carries
        the actual one.
        """
        loop = asyncio.get_running_loop()
        self._server = await loop.create_server(
            lambda: _Connection(self), self.host, self.port
        )
        self._sweep = loop.call_later(IDLE_SECONDS, self._sweep_idle)
        sockets = self._server.sockets or []
        if sockets:
            address = sockets[0].getsockname()
            self.host, self.port = address[0], address[1]
        return self.host, self.port

    async def stop(self) -> None:
        """Stop accepting and drop every open connection."""
        if self._sweep is not None:
            self._sweep.cancel()
            self._sweep = None
        if self._server is not None:
            self._server.close()
            # Server.close leaves accepted connections open, and from
            # 3.12 wait_closed waits for them to leave
            for connection in list(self._connections):
                connection.transport.abort()
            await self._server.wait_closed()
            self._server = None

    async def serve_forever(self) -> None:
        """Start (if needed) and block until cancelled."""
        if self._server is None:
            await self.start()
        try:
            await asyncio.get_running_loop().create_future()
        finally:
            await self.stop()

    def _sweep_idle(self) -> None:
        for connection in list(self._connections):
            if connection.active:
                connection.active = False
            elif connection.transport.is_closing():
                # still flushing to a peer that stopped reading
                connection.transport.abort()
            else:
                connection.transport.write(b"ERR idle timeout\n")
                connection.transport.close()
        self._sweep = asyncio.get_running_loop().call_later(
            IDLE_SECONDS, self._sweep_idle
        )

    # ---------------------------------------------------------- protocol

    def _respond(self, request: str) -> bytes:
        """The whole reply to one request line, newline-terminated."""
        parts = request.split()
        command = parts[0].upper()
        try:
            if (command == "GET" and len(parts) == 2) or (
                command == "MGET" and len(parts) >= 2
            ):
                # parse all first: a bad address counts no query
                epoch, lines = self.service.answer_lines(
                    [parse_ip(text) for text in parts[1:]]
                )
                if command == "MGET":
                    lines.append(f"END {epoch}\n".encode())
                return b"".join(lines)
            if command == "AT" and len(parts) == 3:
                timestamp = float(parts[1])
                value, version = parse_ip(parts[2])
                result = self.service.lookup_at(timestamp, value, version)
                return answer_line(result, -1)
            if command == "STATS" and len(parts) == 1:
                reply = json.dumps(self.service.stats(), sort_keys=True)
            else:
                reply = f"ERR unknown or malformed command: {command}"
        except NoEpochError:
            reply = "ERR no epoch installed"
        except (ServingError, ValueError) as exc:
            reply = f"ERR {exc}"
        return f"{reply}\n".encode()


class _Connection(asyncio.Protocol):
    """One client: frames request lines, answers each read in one write."""

    def __init__(self, server: LookupServer) -> None:
        self.server = server
        self.transport: asyncio.Transport
        #: the unfinished line after the last newline read
        self.partial = b""
        #: a request line was framed since the last idle sweep
        self.active = True

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self.transport = cast(asyncio.Transport, transport)
        if len(self.server._connections) >= MAX_CONNECTIONS:
            self.transport.write(b"ERR too many connections\n")
            self.transport.close()
        else:
            self.server._connections.add(self)

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self.server._connections.discard(self)

    def pause_writing(self) -> None:
        self.transport.pause_reading()

    def resume_writing(self) -> None:
        self.transport.resume_reading()

    def eof_received(self) -> None:
        # the peer half-closed: answer an unterminated last request, as a
        # newline would; returning None closes the transport
        if self.partial:
            self.data_received(b"\n")

    def data_received(self, data: bytes) -> None:
        *lines, self.partial = (self.partial + data).split(b"\n")
        if len(self.partial) > MAX_LINE_BYTES:
            lines.append(self.partial)  # cannot end within the cap
        respond = self.server._respond
        replies = []
        hang_up = False
        for line in lines:
            if len(line) > MAX_LINE_BYTES:
                replies.append(b"ERR line too long\n")
                hang_up = True
                break
            request = line.decode("utf-8", errors="replace").strip()
            if request.upper() == "QUIT":
                hang_up = True
                break
            if request:
                replies.append(respond(request))
            self.active = True
        self.transport.write(b"".join(replies))
        if hang_up:
            self.transport.close()
