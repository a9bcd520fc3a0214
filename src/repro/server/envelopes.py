"""Request/response envelopes for the disambiguation service.

**Request envelope.**  The body of ``POST /v1/disambiguate`` is a JSON
envelope ``{"name": ..., "xml": ...}``, whatever its ``Content-Type``;
``name`` defaults to ``request``.  Any other top-level key is rejected
by name: the pipeline configuration is the server process's own
(``repro serve`` takes the flags ``repro batch`` takes), so a request
never carries one.

**Response envelope.**  Every disambiguation response ends with a
``DocOutcome``-shaped envelope line (``{"envelope": {...}}``): the
batch pipeline's outcome statuses (``ok`` / ``failed``), the typed
error, the stage that failed, and the attempt count — the service
equivalent of the batch pipeline's per-document outcomes, replacing
process exit codes.  Pre-pipeline rejections (bad envelope, over-limit
body, admission) reuse the same shape with synthetic stages
(``envelope``, ``protocol``, ``admission``) so a client parses exactly
one error schema.
"""

from __future__ import annotations

import dataclasses
import json

from ..runtime.resilience import STATUS_FAILED, DocOutcome
from .protocol import HTTPRequest

#: Top-level keys of a JSON envelope.
ENVELOPE_KEYS = frozenset({"xml", "name"})

#: Document name used when the request does not carry one.
DEFAULT_NAME = "request"


class EnvelopeError(Exception):
    """A request that fails before the pipeline, as a typed envelope."""

    def __init__(self, status: int, stage: str, message: str,
                 error_type: str = "EnvelopeError", name: str = DEFAULT_NAME):
        super().__init__(message)
        self.status = status
        self.outcome = DocOutcome(
            name=name,
            status=STATUS_FAILED,
            stage=stage,
            error_type=error_type,
            error=message,
        )


@dataclasses.dataclass(frozen=True)
class DisambiguationRequest:
    """One parsed ``POST /v1/disambiguate`` payload."""

    name: str
    xml: str


def envelope_payload(outcome: DocOutcome) -> dict:
    """The ``{"envelope": ...}`` rendering of a structured outcome."""
    return {"envelope": outcome.to_dict()}


def parse_disambiguation_request(request: HTTPRequest) -> DisambiguationRequest:
    """Decode a disambiguation request's JSON envelope into name/xml.

    Raises :class:`EnvelopeError` (status 400) for a body that is not a
    JSON object (raw XML included), a missing ``xml``, or unknown
    envelope keys — parse errors *inside* the XML itself are the
    pipeline's job and come back as a ``failed`` outcome with
    ``stage="parse"``.
    """
    try:
        document = json.loads(request.body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise EnvelopeError(
            400, "envelope", f"malformed JSON envelope: {exc}"
        )
    if not isinstance(document, dict):
        raise EnvelopeError(
            400, "envelope",
            f"JSON envelope must be an object, got {type(document).__name__}",
        )
    xml = document.get("xml")
    if not isinstance(xml, str):
        raise EnvelopeError(
            400, "envelope", "JSON envelope is missing the 'xml' string"
        )
    name = document.get("name", DEFAULT_NAME)
    if not isinstance(name, str) or not name:
        raise EnvelopeError(
            400, "envelope", "'name' must be a non-empty string"
        )
    unknown = sorted(set(document) - ENVELOPE_KEYS)
    if unknown:
        raise EnvelopeError(
            400, "envelope",
            f"unknown envelope key(s): {', '.join(unknown)} "
            f"(valid: {', '.join(sorted(ENVELOPE_KEYS))})",
            name=name,
        )
    return DisambiguationRequest(name=name, xml=xml)

