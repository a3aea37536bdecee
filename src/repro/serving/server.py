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
The one exception is a request line longer than :data:`MAX_LINE_BYTES`:
it answers ``ERR line too long`` and closes the connection, since the
rest of the stream can no longer be framed.  That cap is the only input
limit, so it is also what bounds ``MGET`` arity (about 4 000 IPv4 or
1 600 IPv6 addresses a request); larger batches go in several requests.
The server holds no per-request state beyond the line being processed.
``GET`` is an ``MGET`` of one without ``END``; every reply answers from
the epoch current when its request was read, and leaves in one ``write``.
"""

from __future__ import annotations

import asyncio
import json
from typing import Optional

from ..core.iputil import parse_ip
from .service import IngressLookupService, NoEpochError, ServingError
from .service import answer_line

__all__ = ["MAX_LINE_BYTES", "LookupServer"]

#: longest request line accepted, its newline not counted; memory per
#: connection is bounded by a small multiple of it
MAX_LINE_BYTES = 64 * 1024


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

    # ---------------------------------------------------------- lifecycle

    async def start(self) -> tuple[str, int]:
        """Bind and start accepting; returns the bound ``(host, port)``.

        ``port=0`` binds an ephemeral port — the return value carries
        the actual one.
        """
        self._server = await asyncio.start_server(
            self._handle_connection,
            self.host,
            self.port,
            limit=MAX_LINE_BYTES,
        )
        sockets = self._server.sockets or []
        if sockets:
            address = sockets[0].getsockname()
            self.host, self.port = address[0], address[1]
        return self.host, self.port

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def serve_forever(self) -> None:
        """Start (if needed) and block until cancelled."""
        if self._server is None:
            await self.start()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    # ---------------------------------------------------------- protocol

    async def _handle_connection(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        try:
            while True:
                try:
                    line = await reader.readline()
                except ValueError:  # readline's name for a limit overrun
                    writer.write(b"ERR line too long\n")
                    await writer.drain()
                    break
                if not line:
                    break
                request = line.decode("utf-8", errors="replace").strip()
                if not request:
                    continue
                if request.upper() == "QUIT":
                    break
                writer.write(self._respond(request))
                await writer.drain()
        except asyncio.CancelledError:
            # event-loop teardown cancels in-flight handlers; drop the
            # connection quietly instead of logging a cancelled task
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass  # peer vanished mid-close; nothing left to release

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
