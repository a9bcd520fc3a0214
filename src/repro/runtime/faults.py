"""Deterministic, seedable fault injection for the batch runtime.

The injector exists so every recovery path in
:mod:`repro.runtime.executor` is exercised by tests and the CI chaos
job rather than hoped-for.  It is
**deliberately stateless**: every decision is a pure function of
``(seed, spec, document name, attempt)`` hashed through blake2b, so the
same schedule fires identically in the parent, in any worker process,
and under any dispatch order — which is what makes the chaos parity
gate ("surviving documents are bit-identical to a fault-free run")
checkable at all.

Fault kinds:

* ``raise`` — raise :class:`InjectedFault` before the document is
  disambiguated (optionally only for the first ``max_attempt``
  attempts: the *flaky-then-recover* schedule).
* ``slow`` — sleep ``delay_s`` before the document runs, to trip the
  executor's per-document wall-clock timeout.
* ``exit`` — kill the worker process mid-document with ``os._exit``
  (the SIGKILL-shaped crash no ``except`` can catch), to exercise the
  persistent pool's respawn-and-requeue path.  In the parent process
  (serial drain, in-process test doubles) it raises a transient
  :class:`InjectedFault` instead — crashing the caller would take the
  test harness down with it.
* ``kill_midbatch`` — SIGKILL the whole batch *process* when a
  matching document comes up: the journal chaos gate's crash, taking
  the parent (and its journal buffers) down with no cleanup at all.
  Unlike ``exit`` this kind is meant to fire in the parent — the gate
  runs it in a sacrificial subprocess and then proves ``--resume``
  reconstructs a byte-identical output.
* ``bitrot`` — not a per-document hook at all: ``bitrot_shard`` flips
  one seeded byte inside an ``RXPD`` shard file *on disk*, past the
  32-byte header.  On a served shard the scrubber's incremental CRC
  pass must catch it; on the temporary shard a
  :class:`~repro.runtime.executor.BatchExecutor` writes for its pool
  workers, their CRC-verified attach fails with a typed
  :class:`~repro.runtime.pack.PackedIndexCRCError` and each worker
  falls back to building the index itself.

Faults *inside* scoring are not injected here: scores are a pure
function of the document, the network and the configuration, so any
exception while scoring fails that one document at the executor's
isolation boundary instead of being worked around.
"""

from __future__ import annotations

import dataclasses
import fnmatch
import hashlib
import os
import signal
import time
from typing import Any

#: Valid ``FaultSpec.kind`` values.
FAULT_KINDS = ("raise", "slow", "exit", "kill_midbatch", "bitrot")


class InjectedFault(RuntimeError):
    """A fault raised on purpose by :class:`FaultInjector`.

    ``transient`` tells the executor whether a retry may succeed
    (flaky-then-recover schedules) or the fault is permanent for this
    document (retrying would waste attempts).
    """

    def __init__(self, message: str, transient: bool = True) -> None:
        super().__init__(message)
        self.transient = transient


@dataclasses.dataclass(frozen=True)
class FaultSpec:
    """One seeded fault schedule.

    ``match`` is an :func:`fnmatch.fnmatch` pattern over document
    names; ``rate`` is the per-document firing probability (decided
    deterministically from the seed, not a shared RNG); ``max_attempt``
    limits a ``raise`` fault to the first N attempts — the
    flaky-then-recover schedule; ``delay_s`` is the sleep for ``slow``
    faults; ``transient`` is carried onto the raised
    :class:`InjectedFault`.
    """

    kind: str
    match: str = "*"
    rate: float = 1.0
    transient: bool = True
    max_attempt: int | None = None
    delay_s: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; expected one of {FAULT_KINDS}"
            )
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"rate must be in [0, 1], got {self.rate}")
        if self.max_attempt is not None and self.max_attempt < 1:
            raise ValueError(f"max_attempt must be >= 1, got {self.max_attempt}")
        if self.delay_s < 0:
            raise ValueError(f"delay_s must be >= 0, got {self.delay_s}")

    @classmethod
    def raising(
        cls, match: str = "*", rate: float = 1.0, transient: bool = True
    ) -> "FaultSpec":
        """Raise an :class:`InjectedFault` for every matching attempt."""
        return cls(kind="raise", match=match, rate=rate, transient=transient)

    @classmethod
    def flaky(
        cls, match: str = "*", fail_attempts: int = 1, rate: float = 1.0
    ) -> "FaultSpec":
        """Fail the first ``fail_attempts`` attempts, then recover."""
        return cls(
            kind="raise",
            match=match,
            rate=rate,
            transient=True,
            max_attempt=fail_attempts,
        )

    @classmethod
    def slow(
        cls,
        match: str = "*",
        delay_s: float = 0.5,
        rate: float = 1.0,
        max_attempt: int | None = None,
    ) -> "FaultSpec":
        """Sleep ``delay_s`` before matching documents run.

        ``max_attempt`` makes the straggler recover on re-dispatch —
        the slow-then-recover schedule for per-document timeout tests.
        """
        return cls(
            kind="slow",
            match=match,
            rate=rate,
            delay_s=delay_s,
            max_attempt=max_attempt,
        )

    @classmethod
    def exiting(
        cls,
        match: str = "*",
        rate: float = 1.0,
        max_attempt: int | None = 1,
    ) -> "FaultSpec":
        """Hard-kill the worker running matching documents.

        Defaults to ``max_attempt=1`` — crash-then-recover — so the
        blamelessly requeued document succeeds on its second attempt in
        the respawned pool instead of assassinating every generation.
        """
        return cls(kind="exit", match=match, rate=rate, max_attempt=max_attempt)

    @classmethod
    def kill_midbatch(
        cls, match: str = "*", rate: float = 1.0
    ) -> "FaultSpec":
        """SIGKILL the whole batch process at a matching document.

        The crash the journal must survive: no ``finally``, no flush,
        no atexit — only what already reached the OS persists.
        """
        return cls(kind="kill_midbatch", match=match, rate=rate)

    @classmethod
    def bitrot(cls, match: str = "*", rate: float = 1.0) -> "FaultSpec":
        """Flip one seeded byte inside a shard file on disk.

        ``match`` patterns the shard's basename (not a document name);
        applied through :meth:`FaultInjector.bitrot_shard`.
        """
        return cls(kind="bitrot", match=match, rate=rate)

    @classmethod
    def parse(cls, text: str) -> "FaultSpec":
        """Parse a CLI fault spec: ``KIND[:MATCH[:RATE]]``.

        ``MATCH`` may itself contain colons (file paths); when the
        final segment parses as a float it is the rate, otherwise it is
        part of the match pattern.  Examples::

            kill_midbatch:*doc-03*
            raise:*.xml:0.25
            bitrot
        """
        parts = text.split(":")
        kind = parts[0]
        match = "*"
        rate = 1.0
        if len(parts) >= 3:
            try:
                rate = float(parts[-1])
            except ValueError:  # lint: disable=silent-degrade  # not a failure: a non-numeric tail is part of the match pattern
                match = ":".join(parts[1:])
            else:
                match = ":".join(parts[1:-1])
        elif len(parts) == 2:
            match = parts[1]
        try:
            return cls(kind=kind, match=match, rate=rate)
        except ValueError as exc:
            raise ValueError(f"bad fault spec {text!r}: {exc}") from None


class FaultInjector:
    """Seeded, stateless fault schedule shared by executor and workers.

    The injector is picklable (plain ints/strings/dataclasses) and is
    shipped to workers through the pool initializer; because decisions
    hash only ``(seed, spec index, name, ...)`` the parent and every
    worker agree on exactly which documents fault, independent of
    process identity, dispatch order, or wall clock.
    """

    def __init__(self, seed: int, specs: list[FaultSpec] | tuple[FaultSpec, ...] = ()) -> None:
        self.seed = int(seed)
        self.specs: tuple[FaultSpec, ...] = tuple(specs)

    def _roll(self, spec_index: int, *parts: Any) -> float:
        """Deterministic uniform draw in [0, 1) for one decision point."""
        token = "|".join([str(self.seed), str(spec_index), *map(str, parts)])
        digest = hashlib.blake2b(token.encode("utf-8"), digest_size=8).digest()
        return int.from_bytes(digest, "big") / 2.0**64

    def _fires(self, spec_index: int, spec: FaultSpec, name: str) -> bool:
        """Whether ``spec`` fires for document ``name`` under this seed."""
        if not fnmatch.fnmatch(name, spec.match):
            return False
        if spec.rate >= 1.0:
            return True
        return self._roll(spec_index, name) < spec.rate

    def before_document(self, name: str, attempt: int) -> None:
        """Injection hook run just before a document is disambiguated.

        Raises :class:`InjectedFault` for matching ``raise`` schedules
        (respecting ``max_attempt``) and sleeps for matching ``slow``
        schedules.  A no-op when nothing matches.
        """
        for spec_index, spec in enumerate(self.specs):
            if not self._fires(spec_index, spec, name):
                continue
            if spec.max_attempt is not None and attempt > spec.max_attempt:
                continue  # flaky-then-recover: later attempts succeed
            if spec.kind == "raise":
                raise InjectedFault(
                    f"injected fault for {name!r} (attempt {attempt}, "
                    f"seed {self.seed}, spec {spec_index})",
                    transient=spec.transient,
                )
            if spec.kind == "exit":
                import multiprocessing

                if multiprocessing.parent_process() is not None:
                    os._exit(17)  # a real crash: no finally, no atexit
                raise InjectedFault(
                    f"injected exit for {name!r} demoted to raise in the "
                    f"parent process (attempt {attempt}, seed {self.seed})",
                    transient=spec.transient,
                )
            if spec.kind == "kill_midbatch":
                import multiprocessing

                sigkill = getattr(signal, "SIGKILL", None)
                target = os.getpid()
                if multiprocessing.parent_process() is not None:
                    # A pool worker reached the fault first: kill the
                    # batch parent (the point of the schedule), then
                    # die — the gate's crash must take the journal
                    # buffers down, not just one worker.
                    target = os.getppid()
                if sigkill is not None:
                    os.kill(target, sigkill)
                os._exit(17)  # platforms without SIGKILL, and workers
            if spec.kind == "slow" and spec.delay_s > 0:
                time.sleep(spec.delay_s)

    def bitrot_shard(self, path: "str | os.PathLike[str]") -> "int | None":
        """Flip one seeded byte of an ``RXPD`` shard file, in place.

        Applies the first matching ``bitrot`` schedule (patterns match
        the shard's basename); the flip position is deterministic in
        the seed and the file size, and always lands past the 32-byte
        disk header so attach-time magic checks still pass and the
        *scrubber's* body CRC is what must catch it.  Returns the
        flipped offset, or ``None`` when no schedule fires.
        """
        path = os.fspath(path)
        base = os.path.basename(path)
        header = 32  # RXPD disk header; flip inside the body
        for spec_index, spec in enumerate(self.specs):
            if spec.kind != "bitrot":
                continue
            if not fnmatch.fnmatch(base, spec.match):
                continue
            if spec.rate < 1.0 and self._roll(spec_index, base) >= spec.rate:
                continue
            size = os.path.getsize(path)
            if size <= header + 1:
                return None
            pos = header + int(
                self._roll(spec_index, "pos", size) * (size - header)
            )
            pos = min(pos, size - 1)
            with open(path, "r+b") as fh:
                fh.seek(pos)
                byte = fh.read(1)
                fh.seek(pos)
                fh.write(bytes([byte[0] ^ 0xFF]))
            return pos
        return None
