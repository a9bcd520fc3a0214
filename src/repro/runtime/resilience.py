"""Resilience primitives for the batch runtime.

This module holds the small, dependency-free building blocks of the
fault-isolated batch pipeline:

* :class:`DocOutcome` — the structured per-document verdict attached to
  every :class:`~repro.runtime.executor.BatchRecord` (``ok`` /
  ``failed``, with the typed error, the attempt count, and the
  pipeline stage that failed).
* :class:`BatchAbortError` — raised under ``on_error="fail"``; carries
  the records completed before the abort.

None of these touch scoring: outcomes are observability metadata and the
JSONL payload of a record (``BatchRecord.to_dict``) never includes them,
so the bit-identity contract of the runtime is untouched.
"""

from __future__ import annotations

import dataclasses
from typing import Any

#: Valid ``DocOutcome.status`` values, from best to worst.
STATUS_OK = "ok"
STATUS_FAILED = "failed"

#: Valid ``on_error`` batch policies.
ON_ERROR_POLICIES = ("fail", "skip", "quarantine")

#: ``DocOutcome.stage`` values the runtime assigns to final errors —
#: shared constants so the executor, the server's envelope mapping, and
#: the tests name stages without scattering string literals.
STAGE_PARSE = "parse"
STAGE_INDEX = "index"
STAGE_POOL = "pool"
STAGE_PIPELINE = "pipeline"


@dataclasses.dataclass
class DocOutcome:
    """Structured resolution of one document's trip through the batch.

    ``status`` is ``ok`` or ``failed`` (no result;
    ``error_type``/``error`` describe why).  ``stage`` classifies where
    the error happened (``parse``, ``index``, ``pool``, ``pipeline``)
    and is empty for successful documents.  ``attempts`` counts
    dispatches: 2 for a document re-run after a worker death lost its
    first run, else 1.
    """

    name: str
    status: str = STATUS_OK
    attempts: int = 1
    stage: str = ""
    error_type: str = ""
    error: str = ""

    @property
    def ok(self) -> bool:
        """True when the document produced a result."""
        return self.status != STATUS_FAILED

    def to_dict(self) -> dict[str, Any]:
        """JSON-serializable view (used by quarantine sidecars/metrics)."""
        payload: dict[str, Any] = {
            "name": self.name,
            "status": self.status,
            "attempts": self.attempts,
        }
        if self.stage:
            payload["stage"] = self.stage
        if self.error_type:
            payload["error_type"] = self.error_type
        if self.error:
            payload["error"] = self.error
        return payload

    @classmethod
    def from_dict(cls, payload: "dict[str, Any]") -> "DocOutcome":
        """Rebuild an outcome from its :meth:`to_dict` payload.

        The journal replay path: a resumed batch reconstructs each
        completed document's outcome exactly as the crashed run
        recorded it, so summaries and quarantine sidecars match an
        uninterrupted run.
        """
        return cls(
            name=payload["name"],
            status=payload.get("status", STATUS_OK),
            attempts=payload.get("attempts", 1),
            stage=payload.get("stage", ""),
            error_type=payload.get("error_type", ""),
            error=payload.get("error", ""),
        )


class BatchAbortError(RuntimeError):
    """Raised under ``on_error="fail"`` when a document finally fails.

    ``records`` holds the :class:`~repro.runtime.executor.BatchRecord`
    objects completed before the abort (in input order, failures
    included) so callers can still persist partial results.
    """

    def __init__(self, message: str, records: list[Any] | None = None) -> None:
        super().__init__(message)
        self.records: list[Any] = list(records or [])
