"""A minimal, from-scratch HTTP/1.1 wire layer over asyncio streams.

The disambiguation service speaks a deliberately small slice of
HTTP/1.1 — exactly what ``curl``, stdlib ``http.client``, and load
balancers need, and nothing the repo's no-dependency ethos would have
to import a framework for:

* request line + headers + ``Content-Length`` bodies, framed strictly
  per RFC 9112: header names are tokens with no whitespace before the
  colon, ``Content-Length`` is ``1*DIGIT`` and appears at most once
  (all ``400`` otherwise), and any request ``Transfer-Encoding`` is
  refused with ``501`` (responses may be chunked);
* bounded everything: request-line/header bytes (``431``), body bytes
  (``413``) — limits are enforced *before* the payload is buffered;
* fixed-length JSON responses and chunked NDJSON responses, one
  complete JSON document per chunk;
* one request per connection (``Connection: close``), which keeps the
  graceful-drain story exact: draining the connection set drains the
  request set.

Parsing failures raise :class:`ProtocolError` carrying the HTTP status
to answer with — the connection handler turns them into typed error
envelopes (see :mod:`repro.server.envelopes`), never bare 500s.
"""

from __future__ import annotations

import asyncio
import json
import re
from dataclasses import dataclass, field

#: Upper bound on the request line + headers block, in bytes.
DEFAULT_MAX_HEADER_BYTES = 16 * 1024

#: Upper bound on a request body, in bytes (overridable per server).
DEFAULT_MAX_BODY_BYTES = 1024 * 1024

#: Reason phrases for every status the server emits.
STATUS_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    422: "Unprocessable Entity",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    501: "Not Implemented",
    503: "Service Unavailable",
}

NDJSON_CONTENT_TYPE = "application/x-ndjson"
JSON_CONTENT_TYPE = "application/json"

#: RFC 9110 ``token`` (a field name) and RFC 9112 ``Content-Length``
#: (``1*DIGIT``, capped at 18 digits so ``int()`` never meets its
#: digit limit; any such length is far over the body limit anyway).
_TOKEN = re.compile(r"[!#$%&'*+\-.^_`|~0-9A-Za-z]+")
_DIGITS = re.compile(r"[0-9]{1,18}")


class ProtocolError(Exception):
    """A malformed or over-limit request, with the HTTP status to send."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status
        self.message = message


@dataclass
class HTTPRequest:
    """One parsed request: method, path, lowercase headers, raw body."""

    method: str
    path: str
    version: str
    headers: dict[str, str] = field(default_factory=dict)
    body: bytes = b""
    client: str = ""

    def header(self, name: str, default: str = "") -> str:
        """A header value by case-insensitive name."""
        return self.headers.get(name.lower(), default)


async def read_request(
    reader: asyncio.StreamReader,
    max_header_bytes: int = DEFAULT_MAX_HEADER_BYTES,
    max_body_bytes: int = DEFAULT_MAX_BODY_BYTES,
    client: str = "",
) -> HTTPRequest | None:
    """Parse one request off the stream (``None`` on clean EOF).

    Raises :class:`ProtocolError` for anything malformed or over the
    limits; the status it carries is what the connection handler
    answers with before closing.
    """
    try:
        request_line = await reader.readline()
    except (ValueError, ConnectionError) as exc:
        raise ProtocolError(431, f"request line too long: {exc}")
    if not request_line:
        return None
    if len(request_line) > max_header_bytes:
        raise ProtocolError(431, "request line exceeds the header budget")
    try:
        text = request_line.decode("ascii").rstrip("\r\n")
        method, target, version = text.split(" ", 2)
    except (UnicodeDecodeError, ValueError):
        raise ProtocolError(400, "malformed request line")
    if not version.startswith("HTTP/1."):
        raise ProtocolError(400, f"unsupported protocol version {version!r}")

    headers: dict[str, str] = {}
    consumed = len(request_line)
    while True:
        try:
            line = await reader.readline()
        except (ValueError, ConnectionError) as exc:
            raise ProtocolError(431, f"header line too long: {exc}")
        if not line:
            raise ProtocolError(400, "connection closed inside headers")
        consumed += len(line)
        if consumed > max_header_bytes:
            raise ProtocolError(431, "headers exceed the header budget")
        if line in (b"\r\n", b"\n"):
            break
        name, colon, value = line.decode("latin-1").partition(":")
        if not colon:
            raise ProtocolError(400, f"header line without ':': {line!r}")
        if not _TOKEN.fullmatch(name):
            raise ProtocolError(400, f"bad header name {name!r}")
        name = name.lower()
        if name == "content-length" and name in headers:
            raise ProtocolError(400, "duplicate Content-Length header")
        headers[name] = value.strip(" \t\r\n")

    if "transfer-encoding" in headers:
        raise ProtocolError(
            501, "request Transfer-Encoding is not supported"
        )
    body = b""
    length_text = headers.get("content-length")
    if length_text is not None:
        if not _DIGITS.fullmatch(length_text):
            raise ProtocolError(400, f"bad Content-Length {length_text!r}")
        length = int(length_text)
        if length > max_body_bytes:
            raise ProtocolError(
                413,
                f"body of {length} bytes exceeds the "
                f"{max_body_bytes}-byte limit",
            )
        try:
            body = await reader.readexactly(length)
        except asyncio.IncompleteReadError:
            raise ProtocolError(400, "connection closed inside the body")

    # The path may carry a query string; the service routes on the path
    # component only (no endpoint takes query parameters today).
    path = target.split("?", 1)[0] or "/"
    return HTTPRequest(
        method=method.upper(), path=path, version=version,
        headers=headers, body=body, client=client,
    )


def render_headers(
    status: int,
    headers: list[tuple[str, str]],
) -> bytes:
    """The status line + header block (through the blank line) as bytes."""
    reason = STATUS_REASONS.get(status, "Unknown")
    lines = [f"HTTP/1.1 {status} {reason}"]
    lines.extend(f"{name}: {value}" for name, value in headers)
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")


async def write_response(
    writer: asyncio.StreamWriter,
    status: int,
    body: bytes,
    content_type: str = JSON_CONTENT_TYPE,
    extra_headers: list[tuple[str, str]] | None = None,
) -> None:
    """Write one fixed-length response (and flush it)."""
    headers = [
        ("Content-Type", content_type),
        ("Content-Length", str(len(body))),
        ("Connection", "close"),
    ]
    headers.extend(extra_headers or [])
    writer.write(render_headers(status, headers) + body)
    await writer.drain()


async def write_json_response(
    writer: asyncio.StreamWriter,
    status: int,
    payload: dict,
    extra_headers: list[tuple[str, str]] | None = None,
) -> None:
    """Write one JSON object as a fixed-length response."""
    body = json.dumps(payload, indent=1, sort_keys=True).encode("utf-8")
    await write_response(
        writer, status, body + b"\n",
        content_type=JSON_CONTENT_TYPE, extra_headers=extra_headers,
    )


class ChunkedNDJSONWriter:
    """Streams NDJSON lines as one HTTP chunk per line.

    The chunk-per-line framing is a protocol promise the test battery
    pins: a client that decodes the chunked framing sees exactly one
    complete, newline-terminated JSON document per chunk, so it can
    split the answer into its lines without parsing inside a chunk.
    """

    def __init__(self, writer: asyncio.StreamWriter):
        self._writer = writer
        self._started = False
        self._status = 200

    @property
    def started(self) -> bool:
        """Whether the header block has been sent (status is frozen)."""
        return self._started

    async def start(self, status: int = 200) -> None:
        """Send the header block; idempotent once started."""
        if self._started:
            return
        self._status = status
        self._writer.write(render_headers(status, [
            ("Content-Type", NDJSON_CONTENT_TYPE),
            ("Transfer-Encoding", "chunked"),
            ("Connection", "close"),
        ]))
        await self._writer.drain()
        self._started = True

    async def write_line(self, payload: dict) -> None:
        """Serialize one canonical NDJSON line and flush it as a chunk."""
        await self.write_raw_line(
            json.dumps(payload, sort_keys=True).encode("utf-8")
        )

    async def write_raw_line(self, line: bytes) -> None:
        """Flush one pre-serialized line (no trailing newline) as a chunk."""
        if not self._started:
            await self.start()
        data = line + b"\n"
        self._writer.write(
            f"{len(data):x}\r\n".encode("ascii") + data + b"\r\n"
        )
        await self._writer.drain()

    async def finish(self) -> None:
        """Send the terminating zero-length chunk."""
        if not self._started:
            await self.start()
        self._writer.write(b"0\r\n\r\n")
        await self._writer.drain()
