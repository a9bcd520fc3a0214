"""Daemon smoke: boot ``repro serve``, drive it, drain it, require exit 0.

CI's ``server`` job runs this end-to-end against the real process
boundary (the in-process battery in ``tests/server`` cannot prove the
exit code or that a command-line flag reaches the served session):
start the daemon on an ephemeral port with non-default pipeline flags,
wait for the stderr announce line, check ``/healthz``, stream one
NDJSON disambiguation and require it to be exactly two lines, the
record line ``repro batch`` writes for the same document file under
the same flags and then the ``ok`` envelope, require a ``config``
envelope key to be refused with 400, read ``/metrics``, then open a
connection that sends half a request body and stalls, SIGTERM, and
require the graceful-drain contract: the daemon, started with
``--drain-timeout 1``, cancels the stalled client at its bound and
exits 0 within 10 s, with no traceback on stderr and the cancellation
counted in its ``--metrics-json`` report.

Usage::

    PYTHONPATH=src python benchmarks/server_smoke.py
"""

from __future__ import annotations

import json
import os
import pathlib
import signal
import socket
import subprocess
import sys
import tempfile

XML = "<library><book><title>bank</title></book></library>"

#: Pipeline flags the daemon is started with; each one alone changes
#: the record line of ``XML``.
FLAGS = ["--radius", "1", "--structure-only"]

#: The daemon's drain bound, and how long the smoke waits for it to
#: exit after SIGTERM while a client stalls mid-body.
DRAIN_TIMEOUT_S = 1
EXIT_WITHIN_S = 10


def http(address: tuple[str, int], payload: bytes) -> bytes:
    """One raw HTTP round-trip; returns the full response bytes."""
    with socket.create_connection(address, timeout=30) as sock:
        sock.sendall(payload)
        data = b""
        while chunk := sock.recv(4096):
            data += chunk
    return data


def dechunk(response: bytes) -> bytes:
    """The body of a chunked HTTP response, chunks joined."""
    rest = response.partition(b"\r\n\r\n")[2]
    body = b""
    while rest:
        size_text, _, rest = rest.partition(b"\r\n")
        size = int(size_text, 16)
        if size == 0:
            break
        body += rest[:size]
        rest = rest[size + 2:]
    return body


def post_json(address: tuple[str, int], payload: dict) -> bytes:
    """One ``POST /v1/disambiguate`` with a JSON envelope body."""
    body = json.dumps(payload).encode("utf-8")
    return http(address, (
        f"POST /v1/disambiguate HTTP/1.1\r\nHost: smoke\r\n"
        f"Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    ).encode("ascii") + body)


def batch_line(env: dict, path: str, flags: list[str]) -> bytes:
    """The JSONL line ``repro batch PATH FLAGS`` writes for one file."""
    done = subprocess.run(
        [sys.executable, "-m", "repro", "batch", path, *flags],
        capture_output=True, env=env, check=True,
    )
    return done.stdout.rstrip(b"\n")


def require(condition: bool, message: str) -> None:
    """Fail the smoke loudly."""
    if not condition:
        raise SystemExit(f"server smoke FAILED: {message}")


def main() -> int:
    """Run the smoke; returns 0 on success."""
    root = pathlib.Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")]
        + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    # The served request names the document by this path, so its
    # record line can equal the batch line byte for byte.
    with tempfile.TemporaryDirectory() as scratch:
        path = os.path.join(scratch, "smoke.xml")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(XML)
        expected = batch_line(env, path, FLAGS)
        default = batch_line(env, path, [])
    require(expected != default,
            f"{' '.join(FLAGS)} does not change the smoke document's line")
    metrics_dir = tempfile.TemporaryDirectory()
    metrics_json = os.path.join(metrics_dir.name, "metrics.json")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--drain-timeout", str(DRAIN_TIMEOUT_S),
         "--metrics-json", metrics_json, *FLAGS],
        stderr=subprocess.PIPE, text=True, env=env,
    )
    try:
        announce = proc.stderr.readline()
        require("repro-serve listening on" in announce,
                f"unexpected announce line: {announce!r}")
        host, port_text = announce.strip().rsplit(" ", 1)[1].rsplit(":", 1)
        address = (host, int(port_text))

        health = http(
            address, b"GET /healthz HTTP/1.1\r\nHost: smoke\r\n\r\n"
        )
        status_line = health.split(b"\r\n")[0]
        require(status_line == b"HTTP/1.1 200 OK",
                f"healthz answered {status_line!r}")
        payload = json.loads(health.partition(b"\r\n\r\n")[2])
        require(payload["ready"] is True, "healthz reports not ready")
        print(f"healthz ok: index {payload['index']['fingerprint'][:12]}..., "
              f"{payload['index']['concepts']} concepts")

        response = post_json(address, {"xml": XML, "name": path})
        status_line = response.split(b"\r\n")[0]
        require(status_line == b"HTTP/1.1 200 OK",
                f"disambiguate answered {status_line!r}")
        lines = dechunk(response).splitlines()
        require(len(lines) == 2,
                f"NDJSON stream has {len(lines)} lines, expected the "
                f"record and the envelope")
        record, envelope = lines
        require(record == expected,
                f"served record differs from `repro batch "
                f"{' '.join(FLAGS)}`:\n  {record!r}\n  {expected!r}")
        require(json.loads(envelope)["envelope"]["status"] == "ok",
                "the second line is not the ok envelope")
        print(f"disambiguate ok: the record line equals `repro batch "
              f"{' '.join(FLAGS)}`, then the ok envelope")

        refused = post_json(
            address, {"xml": XML, "name": "smoke", "config": {"radius": 2}}
        )
        status_line = refused.split(b"\r\n")[0]
        require(status_line == b"HTTP/1.1 400 Bad Request",
                f"a config envelope key answered {status_line!r}")
        envelope = json.loads(refused.partition(b"\r\n\r\n")[2])
        require("config" in envelope["envelope"]["error"],
                "the 400 envelope does not name the config key")
        print("config key ok: 400 envelope naming it")

        metrics = http(
            address, b"GET /metrics HTTP/1.1\r\nHost: smoke\r\n\r\n"
        )
        snapshot = json.loads(metrics.partition(b"\r\n\r\n")[2])
        require(snapshot["counters"].get("documents_served") == 1,
                "metrics did not count the served document")
        print("metrics ok: documents_served=1")

        # Half a request body, then silence: only the drain bound can
        # end this connection.  The healthz round-trip after it returns
        # once the daemon has accepted both, in order, so the stalled
        # request is in flight when SIGTERM arrives.
        body = json.dumps({"xml": XML, "name": "stalled"}).encode("utf-8")
        with socket.create_connection(address, timeout=30) as stalled:
            stalled.sendall((
                f"POST /v1/disambiguate HTTP/1.1\r\nHost: smoke\r\n"
                f"Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n\r\n"
            ).encode("ascii") + body[: len(body) // 2])
            http(address, b"GET /healthz HTTP/1.1\r\nHost: smoke\r\n\r\n")
            proc.send_signal(signal.SIGTERM)
            try:
                _, errors = proc.communicate(timeout=EXIT_WITHIN_S)
            except subprocess.TimeoutExpired:
                raise SystemExit(
                    f"server smoke FAILED: still running {EXIT_WITHIN_S} s "
                    f"after SIGTERM with a stalled client "
                    f"(--drain-timeout {DRAIN_TIMEOUT_S})"
                ) from None
        require(proc.returncode == 0,
                f"SIGTERM drain exited {proc.returncode}, expected 0")
        require("Traceback" not in errors,
                f"stderr after SIGTERM holds a traceback:\n{errors}")
        with open(metrics_json, encoding="utf-8") as handle:
            cancelled = json.load(handle)["counters"].get("drain_cancelled")
        require(cancelled == 1,
                f"the drain cancelled {cancelled} connections, expected "
                f"the stalled one")
        print(f"drain ok: SIGTERM with a stalled client -> exit 0, the "
              f"client cancelled at the {DRAIN_TIMEOUT_S} s bound, no "
              f"traceback")
        return 0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        metrics_dir.cleanup()


if __name__ == "__main__":
    raise SystemExit(main())
