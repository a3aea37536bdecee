"""The query stage: closed-loop lookups over a socket beside hot swaps.

A benchmark-owned host process builds ``IngressLookupService`` +
``LookupServer`` on loopback and installs a *fresh* ``Snapshot`` every
250 ms, alternating the workload's final and mid-run records, so each
install pays the compile and lands in the same event loop that answers
requests.  The client is one connection in a closed loop (a lookup
client waits for its reply): single ``GET``s, then ``MGET``s of 64.
Every answer is checked against an in-process ``CompiledLPM`` for the
epoch the reply names — odd epochs serve the final records, even ones
the mid-run records.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import resource
import socket
import time
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import zip_longest
from typing import Any, Callable, Iterator, Optional

import numpy as np

from repro.core.iputil import IPV4, format_ip
from repro.core.lpm import CompiledLPM
from repro.core.output import IPDRecord
from repro.core.snapshot import Snapshot
from repro.serving.server import LookupServer
from repro.serving.service import IngressLookupService

from machine import QUERY_CPU, allowed_cpus, pin

__all__ = ["QueryPlan", "plan_queries", "query_once", "echo_once"]

SWAP_SECONDS = 0.25
MGET_WIDTH = 64
#: GETs per segment: a segment's p99 has 15 samples beyond it
SEGMENT_GETS = 1_500
_MISS_SHARE = 0.10
_SOCKET_TIMEOUT = 10.0


@dataclass
class QueryPlan:
    """Seeded request lines plus the tables that check the answers."""

    final_records: list[IPDRecord]
    mid_records: list[IPDRecord]
    addresses: list[int]
    gets: list[bytes]
    mgets: list[bytes]

    def table(self, epoch: int) -> CompiledLPM:
        records = self.final_records if epoch % 2 else self.mid_records
        return CompiledLPM.from_records(records)


def plan_queries(
    final_records: list[IPDRecord],
    mid_records: list[IPDRecord],
    seed: int,
    gets: int,
    mgets: int,
) -> QueryPlan:
    """Addresses uniform over the covered space, plus 10 % misses."""
    rng = np.random.default_rng([seed, 2])
    total = gets + mgets * MGET_WIDTH
    ranges = [
        record.range for record in final_records
        if record.classified and record.version == IPV4
    ]
    random_addresses = rng.integers(0, 1 << 32, total, dtype=np.uint64)
    if ranges:
        starts = np.array([prefix.value for prefix in ranges], dtype=np.uint64)
        sizes = np.array(
            [1 << (32 - prefix.masklen) for prefix in ranges], dtype=np.float64
        )
        picks = np.searchsorted(
            np.cumsum(sizes) / sizes.sum(), rng.random(total), side="right"
        ).clip(max=len(ranges) - 1)
        covered = starts[picks] + (rng.random(total) * sizes[picks]).astype(
            np.uint64
        )
        # a uniform draw over the whole space is a miss unless it lands
        # in a range, which the answer check tolerates either way
        addresses = np.where(
            rng.random(total) < _MISS_SHARE, random_addresses, covered
        )
    else:
        addresses = random_addresses
    values = [int(value) for value in addresses]
    texts = [format_ip(value, IPV4) for value in values]
    mget_lines = [
        ("MGET " + " ".join(texts[start:start + MGET_WIDTH]) + "\n").encode()
        for start in range(gets, total, MGET_WIDTH)
    ]
    return QueryPlan(
        final_records=final_records,
        mid_records=mid_records,
        addresses=values,
        gets=[f"GET {text}\n".encode() for text in texts[:gets]],
        mgets=mget_lines,
    )


# -- host process --------------------------------------------------------------


def _host_main(conn: Any, plan: Optional[QueryPlan]) -> None:
    """Serve until the parent writes to the pipe; then report and exit.

    With a plan: the lookup server with hot swaps.  Without: a bare
    asyncio line echo on the same kind of socket, the latency floor.
    """
    installs: list[float] = []

    async def echo(reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        while (line := await reader.readline()) and line != b"QUIT\n":
            writer.write(line)
            await writer.drain()
        writer.close()

    async def main() -> None:
        loop = asyncio.get_running_loop()
        stop = asyncio.Event()
        epoch = 0

        def install() -> None:
            nonlocal epoch
            epoch += 1
            records = plan.final_records if epoch % 2 else plan.mid_records
            started = time.perf_counter()
            service.install_snapshot(
                Snapshot(float(epoch), records, epoch=epoch, source="ledger")
            )
            installs.append(time.perf_counter() - started)

        if plan is not None:
            service = IngressLookupService()
            server = LookupServer(service)
            install()
            __, port = await server.start()
        else:
            raw = await asyncio.start_server(echo, "127.0.0.1", 0)
            port = raw.sockets[0].getsockname()[1]
        loop.add_reader(conn.fileno(), stop.set)
        conn.send(port)
        while not stop.is_set():
            try:
                await asyncio.wait_for(stop.wait(), SWAP_SECONDS)
            except asyncio.TimeoutError:
                if plan is not None:
                    install()
        loop.remove_reader(conn.fileno())
        if plan is not None:
            await server.stop()
        else:
            raw.close()
            await raw.wait_closed()

    asyncio.run(main())
    usage = resource.getrusage(resource.RUSAGE_SELF)
    conn.send(
        {
            "installs": installs,
            "maxrss_kb": usage.ru_maxrss,
            "cpu_s": usage.ru_utime + usage.ru_stime,
        }
    )
    conn.close()


class _Host:
    """The host process as a context manager (forked, always joined)."""

    def __init__(self, plan: Optional[QueryPlan]) -> None:
        ctx = multiprocessing.get_context("fork")
        self._conn, child_conn = ctx.Pipe(duplex=True)
        self._process = ctx.Process(target=_host_main, args=(child_conn, plan))
        self._process.start()
        child_conn.close()
        self.report: dict[str, Any] = {}
        self.port = 0

    def __enter__(self) -> "_Host":
        if not self._conn.poll(_SOCKET_TIMEOUT):
            self._process.kill()
            self._process.join()
            raise RuntimeError("lookup host did not start")
        self.port = self._conn.recv()
        return self

    def __exit__(self, *exc: object) -> None:
        try:
            self._conn.send("stop")
            if self._conn.poll(_SOCKET_TIMEOUT):
                self.report = self._conn.recv()
        except (OSError, EOFError):
            pass
        finally:
            self._conn.close()
            self._process.join(_SOCKET_TIMEOUT)
            if self._process.is_alive():
                self._process.kill()
                self._process.join()


# -- client --------------------------------------------------------------------


@contextmanager
def _one_core() -> Iterator[None]:
    """Pin this process, and the host it forks, to one shared core.

    The loop is closed with one request in flight, so client and server
    never run at the same time.  Left to the scheduler they land on two
    cores about half the time, and on a VM every hand-over then pays a
    cross-CPU wake-up: GET p50 was bimodal (45 vs 75 µs) from run to
    run.  One core takes that coin flip out of the number, and lets the
    machine-speed reference be taken on the core that did the work.
    """
    home = allowed_cpus()
    pin([QUERY_CPU])
    try:
        yield
    finally:
        pin(home)


def _percentile(sorted_values: list[float], share: float) -> float:
    return float(sorted_values[min(len(sorted_values) - 1, int(len(sorted_values) * share))])


def _closed_loop(port: int, lines: list[bytes], replies_per_line: int) -> tuple[list[int], list[bytes], float]:
    """Send each line only after the previous reply arrived."""
    latencies: list[int] = []
    replies: list[bytes] = []
    clock = time.perf_counter_ns
    with socket.create_connection(("127.0.0.1", port), _SOCKET_TIMEOUT) as sock:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        reader = sock.makefile("rb")
        send = sock.sendall
        readline = reader.readline
        begun = time.perf_counter()
        for line in lines:
            sent = clock()
            send(line)
            for __ in range(replies_per_line):
                replies.append(readline())
            latencies.append(clock() - sent)
        elapsed = time.perf_counter() - begun
        # leave through the protocol and wait for the server's close, so
        # no handler is still running when the host shuts its loop down
        send(b"QUIT\n")
        reader.read()
        reader.close()
    return latencies, replies, elapsed


def _wrong_answers(plan: QueryPlan, addresses: list[int], replies: list[bytes]) -> int:
    """Replies that disagree with the table of the epoch they name."""
    tables: dict[int, CompiledLPM] = {}
    wrong = 0
    for value, reply in zip(addresses, replies):
        parts = reply.decode("utf-8", errors="replace").split()
        try:
            epoch = int(parts[-1])
        except (IndexError, ValueError):
            wrong += 1  # empty (timed out / closed) or unparsable
            continue
        table = tables.get(epoch % 2)
        if table is None:
            table = tables[epoch % 2] = plan.table(epoch)
        entry = table.lookup_entry(value)
        if entry is None:
            wrong += parts[0] != "MISS"
        else:
            wrong += parts[:4] != [
                "HIT", entry.ingress.router, entry.ingress.interface,
                str(entry.prefix),
            ]
    return wrong


def _chunks(lines: list[bytes], count: int) -> list[list[bytes]]:
    size = -(-len(lines) // count) or 1
    return [lines[start:start + size] for start in range(0, len(lines), size)]


def query_once(
    plan: QueryPlan, speed: Callable[[], float] = lambda: 1.0
) -> dict[str, Any]:
    """One query repeat: fresh host, GETs and MGETs, every answer checked.

    The requests go out in segments of a GET phase (``SEGMENT_GETS``
    requests) and an MGET phase, and *speed* (the machine speed on the
    query core since its last call, machine.py) is read around each
    phase: a phase lasts a tenth of a second and the machine's speed
    flips about as fast, so one reading per repeat mislabels too many
    phases.  Each segment is one sample of every lookup metric, the p99
    included: a noisy second of the host decides a p99 over a whole
    repeat, and the median of three such p99s spread by 16 % over ten
    runs where the median over 18 segment p99s spread by 11 %.
    """
    gets, mgets = len(plan.gets), len(plan.mgets)
    attempted = gets + mgets * MGET_WIDTH
    get_replies: list[bytes] = []
    mget_replies: list[bytes] = []
    segments: list[dict[str, float]] = []
    count = max(1, gets // SEGMENT_GETS)
    with _one_core(), _Host(plan) as host:
        try:
            # the first loop after the fork pays the copy-on-write faults
            # of the pages it allocates (50 ms against 31 ms): a reading
            # that includes it calls the machine slow, and the first
            # segment's latencies came out 1.3 times too short
            speed()
            speed()
            for get_lines, mget_lines in zip_longest(
                _chunks(plan.gets, count), _chunks(plan.mgets, count),
                fillvalue=(),
            ):
                segment: dict[str, float] = {}
                if get_lines:
                    latencies, replies, seconds = _closed_loop(host.port, get_lines, 1)
                    get_replies += replies
                    latencies.sort()
                    segment.update(
                        get_per_s=len(get_lines) / seconds,
                        get_p50_us=_percentile(latencies, 0.50) / 1e3,
                        get_p99_us=_percentile(latencies, 0.99) / 1e3,
                        get_speed=speed(),
                    )
                if mget_lines:
                    __, replies, seconds = _closed_loop(
                        host.port, mget_lines, MGET_WIDTH + 1
                    )
                    mget_replies += replies
                    segment.update(
                        mget_lookups_per_s=len(mget_lines) * MGET_WIDTH / seconds,
                        mget_speed=speed(),
                    )
                segments.append(segment)
        except OSError as exc:  # timeouts included: every request failed
            return {
                "attempted": attempted,
                "failed": attempted,
                "errors": [f"lookup client: {exc!r}"],
                "segments": [],
            }
    # drop each MGET's END line; its epoch is on every answer line too
    answers = [
        reply for index, reply in enumerate(mget_replies)
        if (index + 1) % (MGET_WIDTH + 1)
    ]
    wrong = _wrong_answers(plan, plan.addresses[:gets], get_replies)
    wrong += _wrong_answers(plan, plan.addresses[gets:], answers)
    installs = sorted(host.report.get("installs", [0.0]))
    return {
        "attempted": attempted,
        "failed": wrong,
        "errors": [f"{wrong} wrong lookup answer(s)"] if wrong else [],
        "segments": segments,
        "installs": len(installs),
        "install_busy_s": sum(installs),
        "install_p50_ms": installs[len(installs) // 2] * 1e3,
        "install_max_ms": installs[-1] * 1e3,
        "host_maxrss_kb": host.report.get("maxrss_kb", 0),
    }


def echo_once(lines: list[bytes]) -> float:
    """p50 round trip (µs) of the same lines through a bare asyncio echo."""
    with _one_core(), _Host(None) as host:
        latencies, __, __ = _closed_loop(host.port, lines, 1)
    latencies.sort()
    return _percentile(latencies, 0.50) / 1e3
