"""HTTP/1.1 client for ``repro serve``: open-loop phases and a closed loop.

One thread, one asyncio loop, at most :data:`MAX_CONNECTIONS` requests
in flight (the server answers one request per connection); the closed
loop is one caller.  In an open loop a request is *due* at its
scheduled time whether or not a connection is free; latency is timed
from that due time to the last byte of the response, so a stall also
charges the requests queued behind it.  How late the generator itself
released each request is reported separately.
"""

from __future__ import annotations

import asyncio
import json
import socket
import time
from dataclasses import dataclass

MAX_CONNECTIONS = 2


@dataclass
class Reply:
    name: str
    status: int
    lines: list[bytes]
    sent: float
    done: float
    error: str = ""

    @property
    def record_line(self) -> bytes | None:
        """The ``repro batch``-identical record line (second to last)."""
        return self.lines[-2] if len(self.lines) >= 2 else None

    @property
    def ok(self) -> bool:
        if self.status != 200 or not self.lines:
            return False
        try:
            envelope = json.loads(self.lines[-1])["envelope"]
        except (ValueError, KeyError, TypeError):
            return False
        return envelope.get("status") == "ok"


def _decode_chunked(body: bytes) -> list[bytes]:
    """The NDJSON lines of a chunked body (one line per chunk)."""
    lines = []
    at = 0
    while True:
        eol = body.index(b"\r\n", at)
        size = int(body[at:eol], 16)
        if size == 0:
            return lines
        start = eol + 2
        lines.append(body[start:start + size].rstrip(b"\n"))
        at = start + size + 2


async def post(address: tuple[str, int], name: str, xml: str) -> Reply:
    """One ``POST /v1/disambiguate``; never raises for a failed request."""
    body = json.dumps({"xml": xml, "name": name}).encode("utf-8")
    head = (
        f"POST /v1/disambiguate HTTP/1.1\r\nHost: perfbench\r\n"
        f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
    ).encode("ascii")
    sent = time.perf_counter()
    try:
        reader, writer = await asyncio.open_connection(*address)
        try:
            writer.write(head + body)
            await writer.drain()
            data = await reader.read()
        finally:
            writer.close()
            await writer.wait_closed()
        done = time.perf_counter()
        header, _, payload = data.partition(b"\r\n\r\n")
        status = int(header.split(b" ", 2)[1])
        return Reply(name, status, _decode_chunked(payload), sent, done)
    except (OSError, ValueError, IndexError) as exc:
        return Reply(name, 0, [], sent, time.perf_counter(),
                     f"{type(exc).__name__}: {exc}")


def get_metrics(address: tuple[str, int]) -> dict:
    """The server's ``GET /metrics`` snapshot (its metrics registry)."""
    with socket.create_connection(address, timeout=30) as sock:
        sock.sendall(b"GET /metrics HTTP/1.1\r\nHost: perfbench\r\n\r\n")
        data = b""
        while chunk := sock.recv(65536):
            data += chunk
    return json.loads(data.partition(b"\r\n\r\n")[2])


@dataclass
class Sample:
    """One request of an open-loop phase, with its timings (s)."""

    reply: Reply
    due: float
    late: float
    backlog: int

    @property
    def latency(self) -> float:
        return self.reply.done - self.due


async def _open_loop(address, schedule) -> list[Sample]:
    slots = asyncio.Semaphore(MAX_CONNECTIONS)
    samples: list[Sample] = []
    waiting = 0

    async def fire(request, due, late, backlog):
        nonlocal waiting
        async with slots:
            waiting -= 1
            reply = await post(address, request.name, request.xml)
        samples.append(Sample(reply, due, late, backlog))

    tasks = []
    start = time.perf_counter() + 0.05
    for request in schedule:
        due = start + request.due_s
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        late = max(0.0, time.perf_counter() - due)
        waiting += 1
        tasks.append(asyncio.create_task(fire(request, due, late, waiting)))
    await asyncio.gather(*tasks)
    samples.sort(key=lambda s: s.due)
    return samples


def open_loop(address, schedule) -> list[Sample]:
    """Send ``schedule`` (``inputs.Request`` list) open-loop; samples by due time."""
    return asyncio.run(_open_loop(address, schedule))


async def _closed_loop(address, texts) -> tuple[list[Reply], float]:
    start = time.perf_counter()
    return [await post(address, name, xml) for name, xml in texts], start


def closed_loop(address, texts) -> tuple[list[Reply], float]:
    """One caller sends ``texts`` in order, each as soon as the previous
    reply has ended.  Returns the replies and the start time."""
    return asyncio.run(_closed_loop(address, texts))
