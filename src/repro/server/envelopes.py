"""Request/response envelopes for the disambiguation service.

**Request envelope.**  ``POST /v1/disambiguate`` accepts two body
shapes:

* the raw XML document (any non-JSON ``Content-Type``), named
  ``request`` unless an ``X-Repro-Name`` header is present;
* a JSON envelope ``{"name": ..., "xml": ..., "config": {...}}``
  whose ``config`` object may override per-request pipeline knobs
  (``radius``, ``approach``, ``threshold``, ``weights``,
  ``strip_target_dimension``, ``structure_only``, ``prune``, ``memo``)
  — the same knobs ``repro batch`` exposes as flags, with the same
  defaults, so a server answer is always reproducible by a batch run.
  Any other top-level key, like any other ``config`` key, is rejected
  by name.

**Response envelope.**  Every disambiguation response ends with a
``DocOutcome``-shaped envelope line (``{"envelope": {...}}``): the
batch pipeline's outcome statuses (``ok`` / ``failed``), the typed
error, the stage that failed, and the attempt count — the service
equivalent of the batch pipeline's per-document outcomes, replacing
process exit codes.  Pre-pipeline rejections (bad envelope, over-limit
body, rate limit, admission) reuse the same shape with synthetic
stages (``envelope``, ``protocol``, ``admission``) so a client parses
exactly one error schema.
"""

from __future__ import annotations

import dataclasses
import json

from ..core.config import DisambiguationApproach, XSDFConfig
from ..runtime.resilience import STATUS_FAILED, DocOutcome
from ..similarity.combined import SimilarityWeights
from .protocol import HTTPRequest

#: ``config.approach`` override values, mirroring the CLI choices.
APPROACHES = {
    "concept": DisambiguationApproach.CONCEPT_BASED,
    "context": DisambiguationApproach.CONTEXT_BASED,
    "combined": DisambiguationApproach.COMBINED,
}

#: Top-level keys of a JSON envelope.
ENVELOPE_KEYS = frozenset({"xml", "name", "config"})

#: Envelope ``config`` keys a request may override.
OVERRIDE_KEYS = frozenset({
    "radius", "approach", "threshold", "weights",
    "strip_target_dimension", "structure_only", "prune", "memo",
})

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

    def payload(self) -> dict:
        """The JSON body answering this rejection."""
        return envelope_payload(self.outcome)


@dataclasses.dataclass(frozen=True)
class DisambiguationRequest:
    """One parsed ``POST /v1/disambiguate`` payload."""

    name: str
    xml: str
    overrides: dict


def envelope_payload(outcome: DocOutcome) -> dict:
    """The ``{"envelope": ...}`` rendering of a structured outcome."""
    return {"envelope": outcome.to_dict()}


def envelope_line(outcome: DocOutcome) -> bytes:
    """The canonical NDJSON envelope line (no trailing newline)."""
    return json.dumps(envelope_payload(outcome), sort_keys=True).encode(
        "utf-8"
    )


def parse_disambiguation_request(request: HTTPRequest) -> DisambiguationRequest:
    """Decode a disambiguation request body into name/xml/overrides.

    Raises :class:`EnvelopeError` (status 400) for undecodable bodies,
    malformed JSON envelopes, missing ``xml``, or unknown envelope or
    override keys — parse errors *inside* the XML itself are the
    pipeline's job and come back as a ``failed`` outcome with
    ``stage="parse"``.
    """
    content_type = request.header("content-type").lower()
    if "json" in content_type:
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
        overrides = document.get("config", {})
        if not isinstance(overrides, dict):
            raise EnvelopeError(
                400, "envelope", "'config' must be an object", name=name
            )
        unknown = sorted(set(overrides) - OVERRIDE_KEYS)
        if unknown:
            raise EnvelopeError(
                400, "envelope",
                f"unknown config override(s): {', '.join(unknown)} "
                f"(valid: {', '.join(sorted(OVERRIDE_KEYS))})",
                name=name,
            )
        return DisambiguationRequest(name=name, xml=xml, overrides=overrides)
    try:
        xml = request.body.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise EnvelopeError(
            400, "envelope", f"request body is not valid UTF-8: {exc}"
        )
    name = request.header("x-repro-name", DEFAULT_NAME) or DEFAULT_NAME
    return DisambiguationRequest(name=name, xml=xml, overrides={})


def apply_overrides(base: XSDFConfig, overrides: dict,
                    name: str = DEFAULT_NAME) -> XSDFConfig:
    """The per-request config: ``base`` with the envelope's overrides.

    Values are validated the way the CLI validates its flags; a bad
    value raises :class:`EnvelopeError` (status 400) instead of letting
    a typo silently run the default configuration.
    """
    if not overrides:
        return base
    changes: dict = {}
    for key, value in overrides.items():
        if key == "radius":
            if not isinstance(value, int) or isinstance(value, bool) \
                    or value < 0:
                raise _bad_override(name, "radius", value, "a non-negative int")
            changes["sphere_radius"] = value
        elif key == "approach":
            if value not in APPROACHES:
                raise _bad_override(
                    name, "approach", value,
                    f"one of {', '.join(sorted(APPROACHES))}",
                )
            changes["approach"] = APPROACHES[value]
        elif key == "threshold":
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise _bad_override(name, "threshold", value, "a number")
            changes["ambiguity_threshold"] = float(value)
        elif key == "weights":
            if (
                not isinstance(value, (list, tuple)) or len(value) != 3
                or any(
                    isinstance(v, bool) or not isinstance(v, (int, float))
                    for v in value
                )
            ):
                raise _bad_override(
                    name, "weights", value, "[edge, node, gloss] numbers"
                )
            changes["similarity_weights"] = SimilarityWeights(
                float(value[0]), float(value[1]), float(value[2])
            )
        elif key == "strip_target_dimension":
            changes["strip_target_dimension"] = _require_bool(
                name, key, value
            )
        elif key == "structure_only":
            changes["include_values"] = not _require_bool(name, key, value)
        elif key == "prune":
            changes["prune"] = _require_bool(name, key, value)
        elif key == "memo":
            changes["memo"] = _require_bool(name, key, value)
    try:
        return dataclasses.replace(base, **changes)
    except ValueError as exc:
        # XSDFConfig's own __post_init__ validation (radius bounds,
        # weight sums, ...) speaks the same envelope as a typo would.
        raise EnvelopeError(
            400, "envelope", f"invalid config override: {exc}", name=name
        )


def _require_bool(name: str, key: str, value: object) -> bool:
    if not isinstance(value, bool):
        raise _bad_override(name, key, value, "a boolean")
    return value


def _bad_override(name: str, key: str, value: object,
                  expected: str) -> EnvelopeError:
    return EnvelopeError(
        400, "envelope",
        f"config override {key!r} expects {expected}, got {value!r}",
        name=name,
    )
