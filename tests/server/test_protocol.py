"""Unit tests of the from-scratch HTTP/1.1 wire layer.

``read_request`` is fed a pre-loaded ``asyncio.StreamReader`` directly
— no socket needed — so every malformed-input branch and limit is
exercised byte-for-byte, and a hypothesis property feeds it mutated
requests in split reads.
"""

from __future__ import annotations

import asyncio
import json
from datetime import timedelta

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.server.protocol import (
    ChunkedNDJSONWriter,
    HTTPRequest,
    ProtocolError,
    read_request,
    render_headers,
    write_json_response,
)


def parse(data: bytes, **kwargs):
    async def go():
        # StreamReader must be built inside the running loop.
        reader = asyncio.StreamReader()
        if data:
            reader.feed_data(data)
        reader.feed_eof()
        return await read_request(reader, **kwargs)

    return asyncio.run(go())


class SinkWriter:
    """A StreamWriter stand-in that just buffers what it is given."""

    def __init__(self):
        self.data = bytearray()

    def write(self, data: bytes) -> None:
        self.data.extend(data)

    async def drain(self) -> None:
        pass


class TestReadRequest:
    def test_parses_method_path_headers_and_body(self):
        request = parse(
            b"POST /v1/disambiguate HTTP/1.1\r\n"
            b"Host: example\r\n"
            b"Content-Type: application/json\r\n"
            b"Content-Length: 4\r\n"
            b"\r\n"
            b"body",
            client="10.0.0.9",
        )
        assert request.method == "POST"
        assert request.path == "/v1/disambiguate"
        assert request.version == "HTTP/1.1"
        assert request.body == b"body"
        assert request.client == "10.0.0.9"
        # Headers are case-insensitive: stored lowercase, read any-case.
        assert request.headers["content-type"] == "application/json"
        assert request.header("CONTENT-TYPE") == "application/json"

    def test_query_string_is_stripped_from_the_path(self):
        request = parse(b"GET /healthz?verbose=1 HTTP/1.1\r\n\r\n")
        assert request.path == "/healthz"

    def test_clean_eof_returns_none(self):
        assert parse(b"") is None

    def test_malformed_request_line_is_400(self):
        with pytest.raises(ProtocolError) as err:
            parse(b"NONSENSE\r\n\r\n")
        assert err.value.status == 400

    def test_unsupported_protocol_version_is_400(self):
        with pytest.raises(ProtocolError) as err:
            parse(b"GET /healthz SPDY/3\r\n\r\n")
        assert err.value.status == 400

    def test_header_without_colon_is_400(self):
        for header in (
            b"nocolonhere",
            # RFC 9112 5.1: whitespace between name and colon -> 400.
            b"Content-Length : 4",
            b"Host\t: test",
            b": empty-name",
        ):
            with pytest.raises(ProtocolError) as err:
                parse(b"GET / HTTP/1.1\r\n" + header + b"\r\n\r\nbody")
            assert err.value.status == 400, header

    def test_truncated_headers_are_400(self):
        with pytest.raises(ProtocolError) as err:
            parse(b"GET / HTTP/1.1\r\nHost: x\r\n")
        assert err.value.status == 400

    def test_header_budget_is_431(self):
        with pytest.raises(ProtocolError) as err:
            parse(
                b"GET / HTTP/1.1\r\nX-Pad: " + b"a" * 64 + b"\r\n\r\n",
                max_header_bytes=32,
            )
        assert err.value.status == 431

    def test_oversized_body_is_413_before_buffering(self):
        # The declared length alone triggers the refusal — the body
        # bytes are never read (here they do not even exist).
        with pytest.raises(ProtocolError) as err:
            parse(
                b"POST / HTTP/1.1\r\nContent-Length: 999999\r\n\r\n",
                max_body_bytes=128,
            )
        assert err.value.status == 413

    def test_chunked_request_body_is_501(self):
        for headers in (
            b"Transfer-Encoding: chunked\r\n",
            # Any request Transfer-Encoding, even next to a length.
            b"Transfer-Encoding: gzip\r\nContent-Length: 4\r\n",
            b"Content-Length: 4\r\nTransfer-Encoding: identity\r\n",
        ):
            with pytest.raises(ProtocolError) as err:
                parse(b"POST / HTTP/1.1\r\n" + headers + b"\r\nbody")
            assert err.value.status == 501, headers

    def test_bad_content_length_is_400(self):
        for headers in (
            b"Content-Length: many\r\n",
            b"Content-Length: -4\r\n",
            # Python int() syntax is not RFC 9112's 1*DIGIT.
            b"Content-Length: 1_0\r\n",
            b"Content-Length: +4\r\n",
            b"Content-Length: 4 4\r\n",
            b"Content-Length:\r\n",
            b"Content-Length: " + b"9" * 5000 + b"\r\n",
            # A repeated length must not let the last one win.
            b"Content-Length: 4\r\nContent-Length: 2\r\n",
            b"Content-Length: 4\r\ncontent-length: 4\r\n",
        ):
            with pytest.raises(ProtocolError) as err:
                parse(b"POST / HTTP/1.1\r\n" + headers + b"\r\nbodybodyxx")
            assert err.value.status == 400, headers

    def test_truncated_body_is_400(self):
        with pytest.raises(ProtocolError) as err:
            parse(b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort")
        assert err.value.status == 400


_POST_BODY = b'{"xml": "<films><film>star</film></films>"}'
#: Valid requests as (request line, headers, body).
_VALID_REQUESTS = (
    (b"POST /v1/disambiguate HTTP/1.1",
     ((b"Host", b"example"), (b"Content-Type", b"application/json"),
      (b"Content-Length", str(len(_POST_BODY)).encode())),
     _POST_BODY),
    (b"GET /healthz HTTP/1.1",
     ((b"Host", b"example"), (b"Accept", b"*/*")),
     b""),
)
#: Content-Length values the server refuses: 18 digits (the parser's
#: cap, far over the body limit: 413), and 19 digits or non-digits,
#: which RFC 9112's ``1*DIGIT`` framing rejects (400).
_BAD_LENGTHS = (b"9" * 18, b"1" * 19, b"12a", b"-1", b"+5", b"0x10", b"")
#: Bytes no request line or header name may carry: NUL, NEL, and
#: non-ASCII UTF-8.
_INSERTS = (b"\x00", b"\x85", "é".encode(), "\u2028".encode())
_LINE_ENDS = (b"\r\n", b"\r", b"\n")


@st.composite
def hostile_requests(draw):
    """A valid POST or GET after header edits, bad bytes in the request
    line or a header name, bare line ends, byte flips and truncation."""
    line, headers, body = draw(st.sampled_from(_VALID_REQUESTS))
    headers = [list(header) for header in headers]
    for _ in range(draw(st.integers(0, 2))):
        edit = draw(st.sampled_from(
            ("big", "duplicate", "length", "chunked")
        ))
        if edit == "big":
            headers.insert(draw(st.integers(0, len(headers))),
                           [b"X-Big", b"a" * 20000])
        elif edit == "duplicate":
            headers.append([b"Content-Length", str(len(body)).encode()])
        elif edit == "length":
            headers = [h for h in headers
                       if h[0].lower() != b"content-length"]
            headers.append([b"Content-Length",
                            draw(st.sampled_from(_BAD_LENGTHS))])
        else:
            headers.append([b"Transfer-Encoding", b"chunked"])
    for _ in range(draw(st.integers(0, 2))):
        insert = draw(st.sampled_from(_INSERTS))
        which = draw(st.integers(0, len(headers)))
        if which == len(headers):
            at = draw(st.integers(0, len(line)))
            line = line[:at] + insert + line[at:]
        else:
            name = headers[which][0]
            at = draw(st.integers(0, len(name)))
            headers[which][0] = name[:at] + insert + name[at:]
    lines = [line] + [name + b": " + value for name, value in headers]
    ends = draw(st.sampled_from(("crlf", "cr", "lf", "mixed")))
    data = bytearray()
    for text in lines + [b""]:
        if ends == "mixed":
            end = draw(st.sampled_from(_LINE_ENDS))
        else:
            end = {"crlf": b"\r\n", "cr": b"\r", "lf": b"\n"}[ends]
        data += text + end
    data += body
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(data) - 1))
        data[at] ^= 1 << draw(st.integers(0, 7))
    if draw(st.booleans()):
        data = data[:draw(st.integers(0, len(data)))]
    return bytes(data)


def _read_in_chunks(data: bytes, cuts: list[int], limit: int):
    async def go():
        reader = asyncio.StreamReader(limit=limit)

        async def feed():
            start = 0
            for cut in sorted(cuts) + [len(data)]:
                reader.feed_data(data[start:cut])
                start = cut
                await asyncio.sleep(0)
            reader.feed_eof()

        feeder = asyncio.create_task(feed())
        try:
            return await read_request(reader)
        finally:
            feeder.cancel()
            await asyncio.gather(feeder, return_exceptions=True)

    return asyncio.run(go())


@settings(max_examples=400, deadline=timedelta(seconds=2))
@given(data=hostile_requests(), limit=st.sampled_from((64, 1024, 65536)),
       cuts=st.lists(st.integers(0, 25000), max_size=3))
def test_hostile_requests_parse_or_raise_protocol_error(data, limit, cuts):
    """Only an ``HTTPRequest``, ``None`` or a ``ProtocolError`` with a
    4xx/501 status comes out, however the bytes arrive."""
    cuts = [min(cut, len(data)) for cut in cuts]
    try:
        request = _read_in_chunks(data, cuts, limit)
    except ProtocolError as exc:
        assert exc.status in (400, 413, 431, 501), exc.status
        return
    assert request is None or isinstance(request, HTTPRequest)


class TestResponses:
    def test_render_headers_shape(self):
        data = render_headers(200, [("Content-Type", "application/json")])
        assert data.startswith(b"HTTP/1.1 200 OK\r\n")
        assert data.endswith(b"\r\n\r\n")

    def test_json_response_is_sorted_and_newline_terminated(self):
        writer = SinkWriter()
        asyncio.run(write_json_response(writer, 200, {"b": 1, "a": 2}))
        head, _, body = bytes(writer.data).partition(b"\r\n\r\n")
        assert b"HTTP/1.1 200 OK" in head
        assert b"Content-Length: " + str(len(body)).encode() in head
        assert body.endswith(b"\n")
        assert json.loads(body) == {"a": 2, "b": 1}
        # Canonical key order survives serialization.
        assert body.index(b'"a"') < body.index(b'"b"')


class TestChunkedNDJSON:
    def run_stream(self, status, lines):
        writer = SinkWriter()

        async def go():
            stream = ChunkedNDJSONWriter(writer)
            await stream.start(status)
            for line in lines:
                await stream.write_line(line)
            await stream.finish()

        asyncio.run(go())
        return bytes(writer.data)

    def test_one_chunk_per_line(self):
        data = self.run_stream(200, [{"seq": 0}, {"seq": 1}])
        head, _, rest = data.partition(b"\r\n\r\n")
        assert b"Transfer-Encoding: chunked" in head
        chunks = []
        while rest:
            size_text, _, rest = rest.partition(b"\r\n")
            size = int(size_text, 16)
            if size == 0:
                break
            chunks.append(rest[:size])
            rest = rest[size + 2:]
        # Exactly one complete, newline-terminated JSON document per
        # chunk — the incremental-client promise.
        assert [json.loads(c) for c in chunks] == [{"seq": 0}, {"seq": 1}]
        assert all(c.endswith(b"\n") for c in chunks)
        assert data.endswith(b"0\r\n\r\n")

    def test_status_is_frozen_after_start(self):
        writer = SinkWriter()

        async def go():
            stream = ChunkedNDJSONWriter(writer)
            await stream.start(422)
            await stream.start(200)  # idempotent: the 422 already left

        asyncio.run(go())
        assert bytes(writer.data).startswith(b"HTTP/1.1 422 ")
