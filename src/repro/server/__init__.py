"""Long-lived disambiguation service over the batch runtime.

``repro serve`` turns the one-shot ``repro batch`` pipeline into a
resident daemon: the semantic network is loaded once, the
:class:`~repro.runtime.pack.PackedIndex` is built (or attached from a
shard) once, and the
pair/sense/document LRUs plus the :class:`~repro.runtime.memo
.SphereMemo` stay warm across requests — exactly the state whose 84%
memo hit rate and repeated-document speedups a per-invocation process
throws away.  Served results are byte-identical to ``repro batch`` on
the same input and configuration.  A process serves the one network it
started with; picking up a new network or shard is a restart.

* :mod:`~repro.server.protocol` — a from-scratch, stdlib-asyncio
  HTTP/1.1 slice: bounded request parsing, fixed-length JSON responses,
  chunk-per-line NDJSON streaming;
* :mod:`~repro.server.envelopes` — request parsing (raw XML or JSON
  envelope with per-request config overrides) and the
  ``DocOutcome``-shaped error envelopes that replace batch exit codes;
* :mod:`~repro.server.ratelimit` — bounded per-client token buckets
  (429 + ``Retry-After``);
* :mod:`~repro.server.app` — :class:`ServerApp`: warm session pool,
  admission control, the three endpoints (``POST /v1/disambiguate``,
  ``GET /healthz``, ``GET /metrics``);
* :mod:`~repro.server.lifecycle` — :class:`ReproServer`: listener,
  SIGTERM/SIGINT/SIGHUP graceful drain (stop accepting, finish
  in-flight, flush metrics, exit 0).

Typical use::

    from repro.semnet import default_lexicon
    from repro.server import ReproServer, ServerApp, ServerConfig

    app = ServerApp(default_lexicon(), server_config=ServerConfig(port=8750))
    raise SystemExit(ReproServer(app).serve())
"""

from .app import ServerApp, ServerConfig, run_one_document
from .envelopes import (
    APPROACHES,
    DisambiguationRequest,
    EnvelopeError,
    apply_overrides,
    envelope_payload,
    parse_disambiguation_request,
)
from .lifecycle import ReproServer, announce_to_stderr
from .protocol import (
    ChunkedNDJSONWriter,
    HTTPRequest,
    ProtocolError,
    read_request,
    write_json_response,
)
from .ratelimit import RateLimiter, TokenBucket

__all__ = [
    "APPROACHES",
    "ChunkedNDJSONWriter",
    "DisambiguationRequest",
    "EnvelopeError",
    "HTTPRequest",
    "ProtocolError",
    "RateLimiter",
    "ReproServer",
    "ServerApp",
    "ServerConfig",
    "TokenBucket",
    "announce_to_stderr",
    "apply_overrides",
    "envelope_payload",
    "parse_disambiguation_request",
    "read_request",
    "run_one_document",
    "write_json_response",
]
