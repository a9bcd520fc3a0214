"""Resilience primitives for the batch runtime.

This module holds the small, dependency-free building blocks of the
fault-isolated batch pipeline:

* :class:`DocOutcome` — the structured per-document verdict attached to
  every :class:`~repro.runtime.executor.BatchRecord` (``ok`` /
  ``retried`` / ``failed``, with the typed error, the attempt count,
  and the pipeline stage that failed).
* :class:`RetryPolicy` — bounded retry with exponential backoff for
  transient faults.
* :class:`CircuitBreaker` — consecutive-failure counter that trips the
  parallel path to the serial fallback.
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
STATUS_RETRIED = "retried"
STATUS_FAILED = "failed"

#: Valid ``on_error`` batch policies.
ON_ERROR_POLICIES = ("fail", "skip", "quarantine")

#: ``DocOutcome.stage`` values the runtime assigns to final errors —
#: shared constants so the executor, the server's envelope mapping, and
#: the tests name stages without scattering string literals.
STAGE_PARSE = "parse"
STAGE_INJECT = "inject"
STAGE_INDEX = "index"
STAGE_TIMEOUT = "timeout"
STAGE_POOL = "pool"
STAGE_PIPELINE = "pipeline"


@dataclasses.dataclass
class DocOutcome:
    """Structured resolution of one document's trip through the batch.

    ``status`` is one of ``ok`` (first try), ``retried`` (succeeded
    after >= 1 transient fault), or ``failed`` (no result;
    ``error_type``/``error`` describe why).  ``stage`` classifies where
    the *final* error happened (``parse``, ``inject``, ``index``,
    ``timeout``, ``pool``, ``pipeline``) and is empty for successful
    documents.
    """

    name: str
    status: str = STATUS_OK
    attempts: int = 1
    stage: str = ""
    error_type: str = ""
    error: str = ""
    transient: bool = False

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


@dataclasses.dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry with exponential backoff for transient faults.

    ``max_retries`` counts *re*-dispatches: a document is attempted at
    most ``max_retries + 1`` times.  ``delay(attempt)`` returns the
    backoff to sleep before re-dispatching attempt ``attempt + 1`` —
    ``backoff_base * 2**(attempt - 1)`` capped at ``backoff_cap``.
    Benchmarks and tests pass ``backoff_base=0.0`` to retry instantly.
    """

    max_retries: int = 2
    backoff_base: float = 0.05
    backoff_cap: float = 2.0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.backoff_base < 0:
            raise ValueError(f"backoff_base must be >= 0, got {self.backoff_base}")

    def allows(self, attempt: int) -> bool:
        """True when a failure on ``attempt`` may be re-dispatched."""
        return attempt <= self.max_retries

    def delay(self, attempt: int) -> float:
        """Backoff (seconds) before re-dispatching after ``attempt``."""
        if self.backoff_base <= 0.0:
            return 0.0
        return min(self.backoff_cap, self.backoff_base * 2.0 ** (attempt - 1))


class CircuitBreaker:
    """Trip to serial fallback after N *consecutive* pool failures.

    Pool-machinery failures (worker crashes, broken pipes, pickling
    errors) increment the counter; any successfully collected task
    resets it.  Once ``tripped`` the executor stops re-creating pools
    and drains the remaining documents serially in the parent.
    """

    def __init__(self, threshold: int = 3) -> None:
        if threshold < 1:
            raise ValueError(f"breaker threshold must be >= 1, got {threshold}")
        self.threshold = threshold
        self.failures = 0
        self.trips = 0

    @property
    def tripped(self) -> bool:
        """True once the consecutive-failure threshold has been hit."""
        return self.failures >= self.threshold

    def record_failure(self) -> bool:
        """Count one pool failure; returns True if this one tripped it."""
        self.failures += 1
        if self.failures == self.threshold:
            self.trips += 1
            return True
        return False

    def record_success(self) -> None:
        """Reset the consecutive-failure counter."""
        self.failures = 0


class BatchAbortError(RuntimeError):
    """Raised under ``on_error="fail"`` when a document finally fails.

    ``records`` holds the :class:`~repro.runtime.executor.BatchRecord`
    objects completed before the abort (in input order, failures
    included) so callers can still persist partial results.
    """

    def __init__(self, message: str, records: list[Any] | None = None) -> None:
        super().__init__(message)
        self.records: list[Any] = list(records or [])
