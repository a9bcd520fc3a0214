"""Long-lived disambiguation service over the batch runtime.

``repro serve`` is the serial ``repro batch`` session behind HTTP: the
semantic network is loaded once, the
:class:`~repro.runtime.pack.PackedIndex` is built (or attached from a
shard) once, and the pair/sense/document LRUs plus the
:class:`~repro.runtime.memo.SphereMemo` stay warm across requests —
exactly the state whose 84% memo hit rate and repeated-document
speedups a per-invocation process throws away.  A process serves one
network under one :class:`~repro.core.config.XSDFConfig`, built from
the pipeline flags ``repro batch`` takes, and its answers are
byte-identical to ``repro batch`` under those flags.  Another
configuration, network or shard is another process (or a restart).

* :mod:`~repro.server.protocol` — a from-scratch, stdlib-asyncio
  HTTP/1.1 slice: bounded request parsing, fixed-length JSON responses,
  chunk-per-line NDJSON streaming;
* :mod:`~repro.server.envelopes` — request parsing (the
  ``{"name", "xml"}`` JSON envelope) and the ``DocOutcome``-shaped
  error envelopes that replace batch exit codes;
* :mod:`~repro.server.app` — :class:`ServerApp`: the resident session,
  admission control (``max_concurrency``, 503 + ``Retry-After``), the
  three endpoints (``POST /v1/disambiguate``, ``GET /healthz``,
  ``GET /metrics``);
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
    DisambiguationRequest,
    EnvelopeError,
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

__all__ = [
    "ChunkedNDJSONWriter",
    "DisambiguationRequest",
    "EnvelopeError",
    "HTTPRequest",
    "ProtocolError",
    "ReproServer",
    "ServerApp",
    "ServerConfig",
    "announce_to_stderr",
    "envelope_payload",
    "parse_disambiguation_request",
    "read_request",
    "run_one_document",
    "write_json_response",
]
