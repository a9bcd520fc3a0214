"""End-to-end server battery over real sockets.

Every test boots a :class:`ReproServer` on an ephemeral port inside its
own event loop and talks raw HTTP to it — operational endpoints,
NDJSON streaming, the concurrency bound, and the graceful-drain
contract.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import socket
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import repro
from repro.core.config import XSDFConfig
from repro.runtime.memo import config_fingerprint
from repro.server import ServerConfig
from repro.server import app as app_module

from ..xmltree.test_hostile import BLOWUP
from .conftest import disambiguate, get, post, request, running

BOOKS_XML = """<?xml version="1.0"?>
<library>
  <book>
    <title>bank</title>
    <author>Stewart</author>
  </book>
</library>
"""


def run(coro):
    return asyncio.run(coro)


class TestServerConfig:
    @pytest.mark.parametrize("knobs", [
        {"max_concurrency": 0},
        {"max_body_bytes": 0},
        {"drain_timeout": -1.0},
    ])
    def test_invalid_knobs_raise_value_error(self, knobs):
        with pytest.raises(ValueError):
            ServerConfig(**knobs)


class TestOperationalEndpoints:
    def test_healthz_reports_ready_index_and_uptime(self, make_app, lexicon):
        async def go():
            async with running(make_app()) as server:
                return await request(server, get("/healthz"))

        response = run(go())
        assert response.status == 200
        payload = response.json()
        assert payload["status"] == "ok"
        assert payload["ready"] is True
        assert payload["uptime_s"] >= 0
        assert payload["index"]["fingerprint"] == lexicon.fingerprint()
        assert payload["index"]["kind"] == "packed"
        assert payload["config_fingerprint"] == config_fingerprint(
            XSDFConfig()
        )
        assert payload["inflight"] == 0
        assert set(payload) == {
            "status", "ready", "uptime_s", "version", "index",
            "config_fingerprint", "inflight",
        }

    def test_metrics_snapshot_matches_the_cli_schema(self, make_app):
        async def go():
            async with running(make_app()) as server:
                return await request(server, get("/metrics"))

        response = run(go())
        assert response.status == 200
        snapshot = response.json()
        # Same shape as `repro batch --metrics-json`: one consumer-side
        # parser serves both artifacts.
        assert set(snapshot) == {
            "counters", "stages", "caches", "events", "events_dropped",
            "throughput", "elapsed_s",
        }
        assert "server_warmup" in snapshot["stages"]
        assert "sphere_memo" in snapshot["caches"]

    def test_unknown_path_is_a_404_envelope(self, make_app):
        async def go():
            async with running(make_app()) as server:
                return await request(server, get("/nope"))

        response = run(go())
        assert response.status == 404
        envelope = response.json()["envelope"]
        assert envelope["status"] == "failed"
        assert envelope["stage"] == "routing"

    def test_wrong_method_is_405_with_allow(self, make_app):
        async def go():
            async with running(make_app()) as server:
                return (
                    await request(server, post("/healthz", b"{}")),
                    await request(server, get("/v1/disambiguate")),
                )

        health, disambig = run(go())
        assert health.status == 405
        assert health.headers["allow"] == "GET"
        assert disambig.status == 405
        assert disambig.headers["allow"] == "POST"


class TestDisambiguate:
    def test_ndjson_round_trip(self, make_app, figure1_xml):
        async def go():
            async with running(make_app()) as server:
                return await request(
                    server, disambiguate(figure1_xml, name="films")
                )

        response = run(go())
        assert response.status == 200
        assert response.headers["content-type"] == "application/x-ndjson"
        # The record line is the one per-document output: exactly the
        # record, then the envelope, one chunk each.
        lines = response.ndjson()
        assert len(lines) == len(response.chunks) == 2
        record, envelope = lines
        assert record["name"] == "films"
        assert record["ok"] is True
        assert record["result"]["assignments"], "expected assignments"
        assert all("chosen" in a for a in record["result"]["assignments"])
        assert envelope["envelope"]["status"] == "ok"

    def test_chunk_per_line_framing(self, make_app, figure1_xml):
        async def go():
            async with running(make_app()) as server:
                return await request(server, disambiguate(figure1_xml))

        response = run(go())
        assert response.chunks is not None
        # One complete, newline-terminated JSON document per chunk.
        for chunk in response.chunks:
            assert chunk.endswith(b"\n")
            json.loads(chunk)
        assert len(response.chunks) == len(response.ndjson())

    def test_raw_xml_body_with_name_header(self, make_app):
        async def go():
            async with running(make_app()) as server:
                return await request(server, post(
                    "/v1/disambiguate", BOOKS_XML.encode("utf-8"),
                    content_type="application/xml",
                    headers=(("X-Repro-Name", "books"),),
                ))

        response = run(go())
        assert response.status == 200
        record = response.ndjson()[-2]
        assert record["name"] == "books"
        assert record["ok"] is True

    def test_malformed_xml_is_a_422_failed_stream(self, make_app):
        inputs = [("<open><unclosed>", "XMLSyntaxError"),
                  (BLOWUP, "XMLEntityError")]

        async def go():
            async with running(make_app()) as server:
                return [
                    await request(server, disambiguate(body, name="broken"))
                    for body, _ in inputs
                ]

        for response, (_, error_type) in zip(run(go()), inputs):
            assert response.status == 422
            lines = response.ndjson()
            assert len(lines) == len(response.chunks) == 2
            record, envelope = lines
            assert record["ok"] is False
            assert envelope["envelope"]["status"] == "failed"
            assert envelope["envelope"]["error_type"] == error_type

    def test_malformed_json_envelope_is_400(self, make_app):
        async def go():
            async with running(make_app()) as server:
                return await request(server, post(
                    "/v1/disambiguate", b"{nope", "application/json"
                ))

        response = run(go())
        assert response.status == 400
        envelope = response.json()["envelope"]
        assert envelope["stage"] == "envelope"

    def test_config_key_is_a_400_envelope_naming_it(
        self, make_app, figure1_xml
    ):
        # The configuration is the process's: a request cannot carry one.
        async def go():
            async with running(make_app()) as server:
                return await request(server, post(
                    "/v1/disambiguate",
                    json.dumps({
                        "xml": figure1_xml, "name": "films",
                        "config": {"radius": 1},
                    }).encode(),
                ))

        response = run(go())
        assert response.status == 400
        envelope = response.json()["envelope"]
        assert envelope["stage"] == "envelope"
        assert envelope["name"] == "films"
        assert "config" in envelope["error"]

    def test_unknown_envelope_key_is_400(self, make_app, figure1_xml):
        async def go():
            async with running(make_app()) as server:
                return await request(server, post(
                    "/v1/disambiguate",
                    json.dumps({"xml": figure1_xml, "colour": 1}).encode(),
                ))

        response = run(go())
        assert response.status == 400
        envelope = response.json()["envelope"]
        assert envelope["stage"] == "envelope"
        assert "colour" in envelope["error"]

    def test_oversized_body_is_413(self, make_app, figure1_xml):
        async def go():
            app = make_app(max_body_bytes=64)
            async with running(app) as server:
                return await request(server, disambiguate(figure1_xml))

        response = run(go())
        assert response.status == 413
        assert response.json()["envelope"]["stage"] == "protocol"

    def test_request_over_max_concurrency_is_503_overloaded(
        self, make_app, figure1_xml, monkeypatch
    ):
        entered = threading.Event()
        release = threading.Event()
        score = app_module.run_one_document

        def held(session, name, xml):
            entered.set()
            assert release.wait(30), "the held request was never released"
            return score(session, name, xml)

        monkeypatch.setattr(app_module, "run_one_document", held)

        async def go():
            async with running(make_app(max_concurrency=1)) as server:
                first = asyncio.create_task(request(
                    server, disambiguate(figure1_xml, name="held")
                ))
                try:
                    loop = asyncio.get_running_loop()
                    assert await loop.run_in_executor(
                        None, entered.wait, 30
                    ), "the first request never reached the scorer"
                    second = await request(
                        server, disambiguate(figure1_xml, name="second")
                    )
                finally:
                    release.set()
                return await first, second

        first, second = run(go())
        assert second.status == 503
        assert second.headers["retry-after"] == "1"
        envelope = second.json()["envelope"]
        assert envelope["stage"] == "admission"
        assert envelope["error_type"] == "Overloaded"
        # The request holding the one slot still answers whole.
        assert first.status == 200
        assert first.ndjson()[-1]["envelope"]["status"] == "ok"

    def test_concurrent_clients_get_identical_records(
        self, make_app, figure1_xml
    ):
        async def go():
            app = make_app(max_concurrency=8)
            async with running(app) as server:
                payload = disambiguate(figure1_xml, name="films")
                return await asyncio.gather(
                    *(request(server, payload) for _ in range(6))
                )

        responses = run(go())
        lines = [r.body.split(b"\n")[-3] for r in responses]
        assert all(r.status == 200 for r in responses)
        # Deterministic under concurrency: every client sees the same
        # record bytes.
        assert len(set(lines)) == 1

    def test_warm_caches_serve_the_second_request(self, make_app, figure1_xml):
        async def go():
            async with running(make_app()) as server:
                first = await request(
                    server, disambiguate(figure1_xml, name="films")
                )
                second = await request(
                    server, disambiguate(figure1_xml, name="films")
                )
                metrics = await request(server, get("/metrics"))
                return first, second, metrics

        first, second, metrics = run(go())
        snapshot = metrics.json()
        # The record line is identical either way...
        assert first.body.split(b"\n")[-3] == second.body.split(b"\n")[-3]
        # ...but the second request was served from the warm document
        # cache, and the index was built exactly once, at warm-up.
        assert snapshot["caches"]["documents"]["hits"] >= 1
        assert snapshot["stages"]["server_warmup"]["count"] == 1
        assert snapshot["counters"]["documents_served"] == 2


class TestDrain:
    def test_drain_finishes_inflight_and_refuses_new_connections(
        self, make_app, figure1_xml
    ):
        async def go():
            app = make_app()
            async with running(app) as server:
                host, port = server.address
                body = json.dumps(
                    {"xml": figure1_xml, "name": "inflight"}
                ).encode("utf-8")
                head = (
                    f"POST /v1/disambiguate HTTP/1.1\r\nHost: t\r\n"
                    f"Content-Type: application/json\r\n"
                    f"Content-Length: {len(body)}\r\n\r\n"
                ).encode("ascii")
                reader, writer = await asyncio.open_connection(host, port)
                # Half a body: the request is provably in flight.
                writer.write(head + body[:16])
                await writer.drain()
                await asyncio.sleep(0.05)

                server.request_drain()
                drain_task = asyncio.create_task(server.run_until_drained())

                refused = False
                for _ in range(200):
                    await asyncio.sleep(0.01)
                    try:
                        _, probe = await asyncio.open_connection(host, port)
                    except OSError:
                        refused = True
                        break
                    probe.close()
                assert refused, "listener kept accepting during drain"

                # The in-flight request still completes, whole.
                writer.write(body[16:])
                await writer.drain()
                raw = await reader.read()
                writer.close()
                await drain_task
                return raw, app

        raw, app = run(go())
        assert raw.split(b"\r\n")[0] == b"HTTP/1.1 200 OK"
        assert b'"status": "ok"' in raw
        assert app.metrics.counter("server_drains") >= 1
        assert app.metrics.counter("drain_cancelled") == 0

    def test_draining_app_refuses_new_work_with_503(
        self, make_app, figure1_xml
    ):
        async def go():
            app = make_app()
            async with running(app) as server:
                app.begin_drain()
                health = await request(server, get("/healthz"))
                work = await request(server, disambiguate(figure1_xml))
                return health, work

        health, work = run(go())
        assert health.status == 503
        assert health.json()["status"] == "draining"
        assert work.status == 503
        assert work.json()["envelope"]["stage"] == "admission"

    @pytest.mark.parametrize(
        "signum", [signal.SIGTERM, signal.SIGHUP], ids=["SIGTERM", "SIGHUP"]
    )
    def test_sigterm_drains_the_daemon_and_exits_zero(self, signum):
        src = Path(repro.__file__).resolve().parents[1]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(src)] + env.get("PYTHONPATH", "").split(os.pathsep)
        ).rstrip(os.pathsep)
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0"],
            stderr=subprocess.PIPE, text=True, env=env,
        )
        try:
            announce = proc.stderr.readline()
            assert "repro-serve listening on" in announce
            host, port = announce.strip().rsplit(" ", 1)[1].rsplit(":", 1)
            with socket.create_connection((host, int(port)), timeout=30) as s:
                s.sendall(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
                data = b""
                while chunk := s.recv(4096):
                    data += chunk
            assert data.split(b"\r\n")[0] == b"HTTP/1.1 200 OK"
            proc.send_signal(signum)
            assert proc.wait(timeout=60) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()

