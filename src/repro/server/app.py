"""The disambiguation service application: routing, the session, streaming.

:class:`ServerApp` is the long-lived core the daemon keeps warm.  It
serves one semantic network under one :class:`~repro.core.config
.XSDFConfig` for its whole life: at startup it builds one
:class:`~repro.runtime.pack.PackedIndex` (or attaches it from an
``RXPD`` shard packed from that network) inside one resident
:class:`~repro.runtime.executor.BatchExecutor` *session* — which is
exactly the serial batch path, so the pair/sense/document LRUs, the
:class:`~repro.runtime.memo.SphereMemo`, and the metrics registry all
survive across requests instead of dying with a process.  A request's
NDJSON record line is therefore **byte-identical** to the ``repro
batch`` JSONL line for the same (name, document) under the same flags
— the test battery pins this under both cold and warm caches.  Another
configuration is another ``repro serve`` process, as another network
is.

Scoring is CPU-bound and runs on a single dedicated worker thread: the
event loop stays free to accept connections, answer ``/healthz`` and
``/metrics``, and turn away requests over ``max_concurrency`` while a
document scores, and the single thread serializes cache access exactly
like the serial batch path (concurrent clients are deterministic by
construction).

Endpoints
---------
``POST /v1/disambiguate``
    Two NDJSON lines, one chunk each: the batch-identical record line,
    then the ``DocOutcome`` envelope line.
``GET /healthz``
    Readiness + index and config fingerprints + uptime.
``GET /metrics``
    The full :class:`~repro.runtime.metrics.MetricsRegistry` snapshot,
    same schema as ``repro batch --metrics-json``.
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from .. import __version__
from ..core.config import XSDFConfig
from ..runtime.executor import (
    DEFAULT_CACHE_SIZE,
    BatchExecutor,
    BatchRecord,
)
from ..runtime.memo import config_fingerprint
from ..runtime.metrics import MetricsRegistry
from ..runtime.pack import PackedIndex
from ..runtime.resilience import STATUS_FAILED, DocOutcome
from ..semnet.network import SemanticNetwork
from .envelopes import (
    EnvelopeError,
    envelope_payload,
    parse_disambiguation_request,
)
from .protocol import (
    DEFAULT_MAX_BODY_BYTES,
    ChunkedNDJSONWriter,
    HTTPRequest,
    write_json_response,
)


@dataclass(frozen=True)
class ServerConfig:
    """Operational knobs of the daemon (the pipeline knobs live in
    :class:`~repro.core.config.XSDFConfig`)."""

    host: str = "127.0.0.1"
    port: int = 8750
    max_concurrency: int = 8
    max_body_bytes: int = DEFAULT_MAX_BODY_BYTES
    drain_timeout: float = 10.0
    metrics_json: str | None = None
    cache_size: int = DEFAULT_CACHE_SIZE
    #: RXPD shard to mmap-attach the served index from (skips the
    #: startup index build; CRC- and fingerprint-checked against the
    #: network).
    shard: "str | None" = None

    def __post_init__(self) -> None:
        if self.max_concurrency < 1:
            raise ValueError("max_concurrency must be >= 1")
        if self.max_body_bytes < 1:
            raise ValueError("max_body_bytes must be >= 1")
        if self.drain_timeout < 0:
            raise ValueError("drain_timeout must be >= 0")
        if self.cache_size < 1:
            raise ValueError("cache_size must be >= 1")


def run_one_document(session: BatchExecutor, name: str,
                     xml: str) -> BatchRecord:
    """Score one document through the resident session (worker thread).

    This is the whole bit-identity argument: the server calls the same
    ``BatchExecutor.run`` the CLI batch path calls, on the same
    resident caches, so the resulting record renders the same JSONL
    line.
    """
    return session.run([(name, xml)])[0]


class ServerApp:
    """Everything the daemon keeps hot, plus the request handlers."""

    def __init__(
        self,
        network: SemanticNetwork,
        config: XSDFConfig | None = None,
        server_config: ServerConfig | None = None,
        metrics: MetricsRegistry | None = None,
    ):
        self.network = network
        self.config = config or XSDFConfig()
        self.server_config = server_config or ServerConfig()
        self.metrics = metrics or MetricsRegistry()
        self._started = time.monotonic()
        self._inflight = 0
        self._draining = False
        self._session: BatchExecutor | None = None
        self._scoring_pool: ThreadPoolExecutor | None = None

    # -- lifecycle -----------------------------------------------------------

    def warm_up(self) -> None:
        """Build the index and the resident session, eagerly.

        Called once before the listener opens so the first request pays
        no index-build latency and ``/healthz`` can report readiness
        truthfully.  A ``shard`` is attached with the full body CRC
        check: a damaged shard fails here, before serving, instead of
        scoring from rotted tables.
        """
        if self._scoring_pool is None:
            self._scoring_pool = ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="repro-score"
            )
        if self._session is None:
            with self.metrics.timer("server_warmup"):
                index = None
                if self.server_config.shard:
                    # Zero-copy cold start: mmap the shard instead of
                    # building the index; the fingerprint check refuses
                    # a shard packed from a different network.
                    index = PackedIndex.from_mmap(
                        self.server_config.shard,
                        verify=True,
                        expect_fingerprint=self.network.fingerprint(),
                    )
                # A request is a one-document serial batch on this one
                # session, whose caches the metrics registry reports.
                session = BatchExecutor(
                    self.network,
                    self.config,
                    cache_size=self.server_config.cache_size,
                    metrics=self.metrics,
                    index=index,
                )
                session.warm()
                self._session = session

    @property
    def ready(self) -> bool:
        """Whether the index + resident session have been built."""
        return self._session is not None

    @property
    def draining(self) -> bool:
        """Whether the daemon has stopped admitting new work."""
        return self._draining

    @property
    def inflight(self) -> int:
        """Disambiguation requests currently admitted."""
        return self._inflight

    def begin_drain(self) -> None:
        """Refuse new disambiguation work (in-flight requests finish)."""
        self._draining = True
        self.metrics.count("server_drains")
        self.metrics.event("server_drain", inflight=self._inflight)

    def close(self) -> None:
        """Release the scoring thread, the session, and metrics."""
        if self._scoring_pool is not None:
            self._scoring_pool.shutdown(wait=False, cancel_futures=True)
            self._scoring_pool = None
        if self._session is not None:
            self._session.close()
            self._session = None
        if self.server_config.metrics_json:
            self.metrics.write_json(self.server_config.metrics_json)

    # -- routing -------------------------------------------------------------

    async def handle(self, request: HTTPRequest,
                     writer: asyncio.StreamWriter,
                     admitted: bool = True) -> None:
        """Dispatch one parsed request and write its full response.

        ``admitted`` is whether the connection was accepted before a
        drain began: pre-drain connections get to finish their one
        request whole (the drain contract), post-drain ones are
        refused with 503.
        """
        self.metrics.count("http_requests")
        if request.path == "/healthz":
            await self._handle_healthz(request, writer)
        elif request.path == "/metrics":
            await self._handle_metrics(request, writer)
        elif request.path == "/v1/disambiguate":
            await self._handle_disambiguate(request, writer, admitted)
        else:
            await self._write_envelope(
                writer, 404, self._routing_outcome(
                    request, f"no such endpoint: {request.path}",
                ),
            )

    async def _require_method(self, request: HTTPRequest,
                              writer: asyncio.StreamWriter,
                              method: str) -> bool:
        if request.method == method:
            return True
        await self._write_envelope(
            writer, 405, self._routing_outcome(
                request, f"{request.path} only accepts {method}",
            ),
            extra_headers=[("Allow", method)],
        )
        return False

    def _routing_outcome(self, request: HTTPRequest,
                         message: str) -> DocOutcome:
        return DocOutcome(
            name=request.path,
            status=STATUS_FAILED,
            stage="routing",
            error_type="RoutingError",
            error=message,
        )

    # -- operational endpoints -----------------------------------------------

    async def _handle_healthz(self, request: HTTPRequest,
                              writer: asyncio.StreamWriter) -> None:
        if not await self._require_method(request, writer, "GET"):
            return
        payload = {
            "status": "draining" if self._draining else "ok",
            "ready": self.ready,
            "uptime_s": round(time.monotonic() - self._started, 3),
            "version": __version__,
            "index": {
                "fingerprint": self.network.fingerprint(),
                "kind": "packed",
                "concepts": len(self.network),
                # "mmap" proves the zero-copy shard attach is live,
                # "heap" an in-process build.
                "backing": (
                    getattr(self._session.index, "backing", "heap")
                    if self._session is not None else None
                ),
            },
            "config_fingerprint": config_fingerprint(self.config),
            "inflight": self._inflight,
        }
        status = 200 if self.ready and not self._draining else 503
        await write_json_response(writer, status, payload)
        self.metrics.count(f"http_{status}")

    async def _handle_metrics(self, request: HTTPRequest,
                              writer: asyncio.StreamWriter) -> None:
        if not await self._require_method(request, writer, "GET"):
            return
        # Same schema as `repro batch --metrics-json`: one consumer-side
        # parser serves both the CLI artifact and the live endpoint.
        await write_json_response(writer, 200, self.metrics.snapshot())
        self.metrics.count("http_200")

    # -- disambiguation ------------------------------------------------------

    async def _handle_disambiguate(self, request: HTTPRequest,
                                   writer: asyncio.StreamWriter,
                                   admitted: bool = True) -> None:
        if not await self._require_method(request, writer, "POST"):
            return
        if self._draining and not admitted:
            self.metrics.count("admission_rejected")
            await self._write_envelope(
                writer, 503, self._admission_outcome(
                    "Draining", "server is draining; not accepting work"
                ),
                extra_headers=[("Retry-After", "1")],
            )
            return
        if self._inflight >= self.server_config.max_concurrency:
            self.metrics.count("admission_rejected")
            await self._write_envelope(
                writer, 503, self._admission_outcome(
                    "Overloaded",
                    f"admission queue is full "
                    f"({self.server_config.max_concurrency} in flight)",
                ),
                extra_headers=[("Retry-After", "1")],
            )
            return
        try:
            envelope = parse_disambiguation_request(request)
        except EnvelopeError as exc:
            self.metrics.count("envelope_rejected")
            await self._write_envelope(writer, exc.status, exc.outcome)
            return
        self._inflight += 1
        try:
            record = await self._score(envelope.name, envelope.xml)
        finally:
            self._inflight -= 1
        await self._stream_record(writer, record)

    async def _score(self, name: str, xml: str) -> BatchRecord:
        """Run one document on the scoring thread."""
        assert self._scoring_pool is not None, "warm_up() was not called"
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(
            self._scoring_pool, run_one_document, self._session, name, xml
        )

    async def _stream_record(self, writer: asyncio.StreamWriter,
                             record: BatchRecord) -> None:
        """The NDJSON answer for one scored document (200 or 422).

        Exactly two lines, one chunk each: the record line **exactly as
        `repro batch` would write it** (byte identity), then the
        ``DocOutcome`` envelope line.  The record carries every sense
        assignment; nothing else repeats them.
        """
        status = 200 if record.ok else 422
        stream = ChunkedNDJSONWriter(writer)
        await stream.start(status)
        await stream.write_raw_line(record.to_json_line().encode("utf-8"))
        outcome = record.outcome or DocOutcome(name=record.name)
        await stream.write_line(envelope_payload(outcome))
        await stream.finish()
        self.metrics.count(f"http_{status}")
        self.metrics.count("documents_served")

    def _admission_outcome(self, error_type: str,
                           message: str) -> DocOutcome:
        return DocOutcome(
            name="request",
            status=STATUS_FAILED,
            stage="admission",
            error_type=error_type,
            error=message,
        )

    async def _write_envelope(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        outcome: DocOutcome,
        extra_headers: list[tuple[str, str]] | None = None,
    ) -> None:
        """One fixed-length JSON error-envelope response."""
        await write_json_response(
            writer, status, envelope_payload(outcome),
            extra_headers=extra_headers,
        )
        self.metrics.count(f"http_{status}")
