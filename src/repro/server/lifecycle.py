"""Daemon lifecycle: listener, connection handling, graceful drain.

:class:`ReproServer` owns the asyncio listener around a
:class:`~repro.server.app.ServerApp` and implements the drain contract
the batch pipeline cannot have (a one-shot process just exits):

1. ``SIGTERM`` / ``SIGINT`` / ``SIGHUP`` request a drain (second
   signal: immediate).
2. The listening socket closes — **new connections are refused at the
   TCP level** from this instant.
3. Every in-flight connection runs to completion (its response is
   written whole), bounded by ``drain_timeout`` (0: no wait);
   stragglers past the bound are cancelled, never silently — each
   cancellation is a metrics event.
4. Metrics are flushed (``--metrics-json``) and the process exits 0.

The server answers one request per connection (``Connection: close``),
so "drain the connection set" and "drain the request set" are the same
waiting game — no keep-alive bookkeeping can leak a request.

Usable both as the CLI blocking entry (:meth:`serve`) and
programmatically from an existing event loop (:meth:`start` /
:meth:`request_drain` / :meth:`run_until_drained`), which is how the
test battery drives it in-process against real sockets.
"""

from __future__ import annotations

import asyncio
import signal
import sys

from .app import ServerApp
from .envelopes import envelope_payload
from .protocol import ProtocolError, read_request, write_json_response
from ..runtime.resilience import STATUS_FAILED, DocOutcome


class ReproServer:
    """The long-lived daemon wrapping one :class:`ServerApp`."""

    def __init__(self, app: ServerApp):
        self.app = app
        self._server: asyncio.base_events.Server | None = None
        self._connections: set[asyncio.Task] = set()
        self._drain_requested: asyncio.Event | None = None
        self._drain_signals = 0

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` (resolves ``port=0`` requests)."""
        assert self._server is not None, "server is not started"
        return self._server.sockets[0].getsockname()[:2]

    # -- startup -------------------------------------------------------------

    async def start(self) -> None:
        """Warm the app (index + default session) and open the listener.

        A listener that cannot bind (the port is taken, the host is not
        an address of this machine) closes the app and exits with one
        ``cannot listen on HOST:PORT: ...`` line.
        """
        self._drain_requested = asyncio.Event()
        self.app.warm_up()
        host = self.app.server_config.host
        port = self.app.server_config.port
        try:
            self._server = await asyncio.start_server(
                self._on_connection, host, port
            )
        except OSError as exc:
            self.app.close()
            raise SystemExit(
                f"cannot listen on {host}:{port}: {exc}"
            ) from None

    def request_drain(self) -> None:
        """Ask for a graceful drain (idempotent; callable from signals)."""
        self._drain_signals += 1
        if self._drain_requested is not None:
            self._drain_requested.set()

    async def run_until_drained(self) -> None:
        """Serve until a drain is requested, then drain and close."""
        assert self._drain_requested is not None, "start() was not called"
        await self._drain_requested.wait()
        await self.drain()

    async def drain(self) -> None:
        """Stop accepting, finish in-flight work, flush, and close.

        In-flight connections get ``drain_timeout`` seconds (0: none),
        and each one still open after that is cancelled.  That bounded
        wait is the only wait for the listener's connections:
        ``Server.wait_closed()`` is not awaited, because since CPython
        3.12.1 it waits for every open connection, so one stalled
        client would hold the drain open past its bound.
        """
        self.app.begin_drain()
        if self._server is not None:
            self._server.close()
        pending = {task for task in self._connections if not task.done()}
        if pending:
            _, stragglers = await asyncio.wait(
                pending, timeout=self.app.server_config.drain_timeout
            )
            for task in stragglers:
                self.app.metrics.count("drain_cancelled")
                self.app.metrics.event(
                    "drain_cancelled", connection=task.get_name()
                )
                task.cancel()
            if stragglers:
                await asyncio.gather(*stragglers, return_exceptions=True)
        self.app.close()

    # -- blocking CLI entry --------------------------------------------------

    def serve(self, announce=None) -> int:
        """Run the daemon until drained; returns the process exit code.

        ``announce(host, port)`` is called once the listener is bound —
        the CLI prints the address there (``--port 0`` binds an
        ephemeral port, so the caller must be told which).
        """
        return asyncio.run(self._serve(announce))

    async def _serve(self, announce) -> int:
        await self.start()
        loop = asyncio.get_running_loop()
        installed = []
        # A hangup drains like a termination: the served network and
        # shard are fixed for the life of the process, so a restart is
        # how new ones are picked up.
        signums = [signal.SIGTERM, signal.SIGINT]
        if hasattr(signal, "SIGHUP"):
            signums.append(signal.SIGHUP)
        try:
            for signum in signums:
                loop.add_signal_handler(signum, self._on_signal)
                installed.append(signum)
        except NotImplementedError:  # lint: disable=handler-envelope  # pragma: no cover - non-POSIX loops
            pass
        try:
            if announce is not None:
                host, port = self.address
                announce(host, port)
            await self.run_until_drained()
        finally:
            for signum in installed:
                loop.remove_signal_handler(signum)
        return 0

    def _on_signal(self) -> None:
        """First signal drains gracefully; a second aborts the wait."""
        self.request_drain()
        if self._drain_signals >= 2:  # pragma: no cover - operator escape
            for task in self._connections:
                task.cancel()

    # -- connection handling -------------------------------------------------

    def _on_connection(self, reader: asyncio.StreamReader,
                       writer: asyncio.StreamWriter) -> None:
        """Start one connection's task and track it for the drain.

        The listener calls this plain function, so the task is this
        server's own: asyncio's done-callback for a coroutine handler
        calls ``task.exception()`` on CPython 3.11.7 and 3.12.1 and
        prints an "Exception in callback" traceback for every
        connection the drain cancels.
        """
        task = asyncio.get_running_loop().create_task(
            self._handle_connection(reader, writer)
        )
        self._connections.add(task)
        task.add_done_callback(self._connections.discard)

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        """One connection = one request = one response, then close."""
        # A connection accepted before the drain began is entitled to
        # finish its one request whole, even if the drain starts while
        # its body is still arriving.
        admitted = not self.app.draining
        try:
            await self._serve_one(reader, writer, admitted)
        finally:
            try:
                if writer.can_write_eof():
                    writer.write_eof()
            except OSError:  # lint: disable=handler-envelope  # teardown: peer already gone, nothing to answer
                pass
            writer.close()
            try:
                await writer.wait_closed()
            except (OSError, asyncio.CancelledError):  # lint: disable=handler-envelope  # teardown: close racing a dead peer
                pass

    async def _serve_one(self, reader: asyncio.StreamReader,
                         writer: asyncio.StreamWriter,
                         admitted: bool = True) -> None:
        peername = writer.get_extra_info("peername")
        client = peername[0] if peername else ""
        try:
            request = await read_request(
                reader,
                max_body_bytes=self.app.server_config.max_body_bytes,
                client=client,
            )
            if request is None:
                return
            await self.app.handle(request, writer, admitted)
        except ProtocolError as exc:
            await self._write_protocol_envelope(writer, exc)
        except ConnectionError:  # lint: disable=handler-envelope  # peer vanished: no socket left to answer on
            # The peer vanished mid-response; there is no socket left to
            # send an envelope on, only an audit trail to keep.
            self.app.metrics.count("connection_aborted")
        except Exception as exc:  # lint: disable=broad-except  # connection isolation boundary -> 500 envelope
            self.app.metrics.count("http_500")
            self.app.metrics.event(
                "handler_error", error_type=type(exc).__name__,
                error=str(exc),
            )
            await self._write_error_envelope(writer, exc)

    async def _write_protocol_envelope(self, writer: asyncio.StreamWriter,
                                       exc: ProtocolError) -> None:
        """Answer a malformed/over-limit request with a typed envelope."""
        self.app.metrics.count(f"http_{exc.status}")
        outcome = DocOutcome(
            name="request",
            status=STATUS_FAILED,
            stage="protocol",
            error_type="ProtocolError",
            error=exc.message,
        )
        try:
            await write_json_response(
                writer, exc.status, envelope_payload(outcome)
            )
        except ConnectionError:  # lint: disable=handler-envelope  # peer gone; the reject is already counted
            pass

    async def _write_error_envelope(self, writer: asyncio.StreamWriter,
                                    exc: Exception) -> None:
        """The last-resort 500: still a typed envelope, never a bare one."""
        outcome = DocOutcome(
            name="request",
            status=STATUS_FAILED,
            stage="handler",
            error_type=type(exc).__name__,
            error=f"{type(exc).__name__}: {exc}",
        )
        try:
            await write_json_response(
                writer, 500, envelope_payload(outcome)
            )
        except ConnectionError:  # lint: disable=handler-envelope  # peer gone; the failure is already in the event log
            pass


def announce_to_stderr(host: str, port: int) -> None:
    """The CLI's default announce hook (parseable by the smoke client)."""
    sys.stderr.write(f"repro-serve listening on {host}:{port}\n")
    sys.stderr.flush()
