"""Shared harness for the server battery: real sockets, raw HTTP bytes.

The tests speak HTTP by hand (request bytes in, response bytes out)
against a :class:`~repro.server.lifecycle.ReproServer` bound to an
ephemeral port inside the test's own event loop — no HTTP client
library sits between the assertions and the wire format, so the chunk
framing, status lines, and header casing are all pinned exactly as a
curl/load-balancer client would see them.
"""

from __future__ import annotations

import asyncio
import contextlib
import json

import pytest

from repro.server import ReproServer, ServerApp, ServerConfig


@pytest.fixture()
def make_app(lexicon):
    """``make_app(config=..., **server_knobs) -> ServerApp`` on port 0."""

    def factory(config=None, **knobs):
        knobs.setdefault("port", 0)
        return ServerApp(
            lexicon, config=config, server_config=ServerConfig(**knobs)
        )

    return factory


@contextlib.asynccontextmanager
async def running(app: ServerApp):
    """Boot a :class:`ReproServer` around ``app``; drain on exit."""
    server = ReproServer(app)
    await server.start()
    try:
        yield server
    finally:
        # drain() is safe to repeat: tests that already drained (or only
        # began one) still get the scoring pool and listener released.
        await server.drain()


async def raw_request(address, payload: bytes) -> bytes:
    """Send raw bytes to the server, return the full raw response."""
    host, port = address
    reader, writer = await asyncio.open_connection(host, port)
    writer.write(payload)
    await writer.drain()
    data = await reader.read()
    writer.close()
    with contextlib.suppress(OSError):
        await writer.wait_closed()
    return data


def get(path: str) -> bytes:
    """Raw bytes of a GET request."""
    return f"GET {path} HTTP/1.1\r\nHost: test\r\n\r\n".encode("ascii")


def post(path: str, body: bytes, content_type: str = "application/json",
         headers: tuple = ()) -> bytes:
    """Raw bytes of a POST request with a fixed-length body."""
    head = (
        f"POST {path} HTTP/1.1\r\nHost: test\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(body)}\r\n"
    )
    for name, value in headers:
        head += f"{name}: {value}\r\n"
    return head.encode("ascii") + b"\r\n" + body


def disambiguate(xml: str, name: str | None = None) -> bytes:
    """Raw bytes of a JSON-envelope disambiguation request."""
    payload: dict = {"xml": xml}
    if name is not None:
        payload["name"] = name
    return post("/v1/disambiguate", json.dumps(payload).encode("utf-8"))


class Response:
    """A parsed raw HTTP response: status, headers, de-chunked body.

    ``chunks`` holds the individual chunk payloads when the response
    used chunked transfer encoding (``None`` for fixed-length bodies),
    so tests can pin the chunk-per-NDJSON-line framing promise.
    """

    def __init__(self, raw: bytes):
        head, _, rest = raw.partition(b"\r\n\r\n")
        lines = head.split(b"\r\n")
        self.status = int(lines[0].split(b" ")[1])
        self.headers: dict[str, str] = {}
        for line in lines[1:]:
            name, _, value = line.decode("latin-1").partition(":")
            self.headers[name.strip().lower()] = value.strip()
        self.chunks: list[bytes] | None = None
        if "chunked" in self.headers.get("transfer-encoding", ""):
            self.chunks = []
            while rest:
                size_text, _, rest = rest.partition(b"\r\n")
                size = int(size_text, 16)
                if size == 0:
                    break
                self.chunks.append(rest[:size])
                rest = rest[size + 2:]
            self.body = b"".join(self.chunks)
        else:
            self.body = rest

    def json(self) -> dict:
        """The body decoded as one JSON document."""
        return json.loads(self.body)

    def ndjson(self) -> list[dict]:
        """The body decoded as NDJSON, one document per line."""
        return [
            json.loads(line)
            for line in self.body.split(b"\n") if line
        ]


async def request(server: ReproServer, payload: bytes) -> Response:
    """One raw round-trip against a running server."""
    return Response(await raw_request(server.address, payload))
