"""Append-only, CRC-framed outcome journal (WAL) for batch jobs.

A ``repro batch`` run that dies mid-way today loses every completed
document.  The journal makes batch work *crash-recoverable*: as each
document's final :class:`~repro.runtime.executor.BatchRecord` lands in
the parent (through the executor's ``record_hook``), one self-delimiting
frame is appended to the journal file.  ``repro batch --resume`` replays
the journal, skips the documents it proves complete, scores only the
remainder, and emits output **byte-identical** to an uninterrupted run
— the CI chaos gate SIGKILLs a batch subprocess mid-run and asserts
exactly that.

Frame format (all little-endian)::

    +--------+------------+-------------+----------------------+
    | b"RXJF"| crc32(body)| body length | body (canonical JSON)|
    |  4 B   |    4 B     |     4 B     |      length B        |
    +--------+------------+-------------+----------------------+

Every frame is written with **one** ``os.write`` on an unbuffered file
object, so a crash (even ``kill -9``) can tear at most the final frame
— and a torn tail is detected by the length/CRC check and dropped at
replay, never mistaken for a completed document.  Durability is
fsync-batched: the OS has the bytes after every append (which is what
survives a process kill), and ``fsync`` runs every
:data:`FSYNC_EVERY` frames plus on :meth:`JournalWriter.close` (which
is what survives a power cut).

The first frame is a **meta** frame stamping the run's config and
network fingerprints; ``--resume`` refuses a journal written under a
different configuration or network, because replaying those records
would violate byte-identity.

Outcome frames are keyed by ``(name, sha256(xml))`` — editing a
document's content invalidates its journal entry, so a resumed run
re-scores it instead of replaying a stale result.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import struct
import zlib
from typing import Any

#: Journal frame header: magic, CRC-32 of the body, body length.
_FRAME = struct.Struct("<4sII")

#: Frame magic ("RXJF": Repro XML Journal Frame).
_MAGIC = b"RXJF"

#: Bump when the frame payload schema changes incompatibly.
JOURNAL_VERSION = 1

#: Frames appended between two ``fsync`` calls.
FSYNC_EVERY = 16


class JournalError(ValueError):
    """Raised for unreadable, mismatched, or malformed journals."""


def document_digest(xml: str) -> str:
    """The content half of a journal entry key: SHA-256 of the text.

    Keying entries by ``(name, digest)`` means a document edited
    between the crash and the resume is re-scored, never replayed.
    The text is encoded with ``surrogatepass``, like the executor's
    cache key: a document file that is not UTF-8 reaches ``parse`` as
    lone surrogates and fails there, and UTF-8 text digests to the
    same bytes as before.
    """
    return hashlib.sha256(xml.encode("utf-8", "surrogatepass")).hexdigest()


def _encode_frame(payload: dict) -> bytes:
    """One self-delimiting frame: header + canonical JSON body."""
    body = json.dumps(payload, sort_keys=True).encode("utf-8")
    return _FRAME.pack(_MAGIC, zlib.crc32(body), len(body)) + body


class JournalWriter:
    """Appends outcome frames to a journal file as documents complete.

    ``meta`` (config/network fingerprints) is stamped as the first
    frame of a fresh journal; opening with ``resume=True`` appends to
    an existing file instead (the meta frame is already there — the
    reader, not the writer, checks it), after cutting the file back to
    its last intact frame: a torn tail left in place would sit between
    the old frames and the new ones, and :func:`read_journal` stops
    there.  The file object is unbuffered, so every :meth:`append`
    hands the OS one complete frame in one write; ``fsync`` is batched
    every :data:`FSYNC_EVERY` frames.
    """

    def __init__(
        self,
        path: "str | os.PathLike[str]",
        meta: "dict | None" = None,
        resume: bool = False,
    ) -> None:
        self.path = os.fspath(path)
        self._pending = 0
        self.appended = 0
        intact = 0
        if resume and os.path.exists(self.path):
            with open(self.path, "rb") as fh:
                _, intact = _scan_frames(fh.read())
        self._fh = open(self.path, "ab" if resume else "wb", buffering=0)
        if resume:
            self._fh.truncate(intact)
        if not intact:
            payload = {"kind": "meta", "version": JOURNAL_VERSION}
            payload.update(meta or {})
            self._write_frame(payload)
            self.flush()

    def _write_frame(self, payload: dict) -> None:
        self._fh.write(_encode_frame(payload))
        self._pending += 1

    def append(self, record: Any, doc_digest: str) -> None:
        """Journal one final :class:`BatchRecord` (completion order).

        ``doc_digest`` is :func:`document_digest` of the document's
        text.  The stored ``record`` dict is exactly the record's JSONL
        payload, so replay re-emits the byte-identical line; its
        ``outcome`` is stored next to it.
        """
        self._write_frame({
            "kind": "outcome",
            "doc_sha": doc_digest,
            "record": record.to_dict(),
            "outcome": record.outcome.to_dict(),
        })
        self.appended += 1
        if self._pending >= FSYNC_EVERY:
            self.flush()

    def flush(self) -> None:
        """Force the journal to stable storage (``fsync``)."""
        if not self._fh.closed:
            os.fsync(self._fh.fileno())
        self._pending = 0

    def close(self) -> None:
        """Flush and close the journal file (idempotent)."""
        if self._fh.closed:
            return
        self.flush()
        self._fh.close()

    def __enter__(self) -> "JournalWriter":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


@dataclasses.dataclass
class JournalReplay:
    """One journal, decoded: its meta frame and the salvaged outcomes.

    ``truncated_bytes`` counts trailing bytes that did not form a valid
    frame — the torn tail of a crash mid-write.  A clean journal has
    zero; a nonzero value is expected after ``kill -9`` and means the
    final in-flight document was *not* journaled (it re-scores on
    resume — correct, just not free).
    """

    path: str
    meta: dict
    entries: list[dict]
    truncated_bytes: int = 0

    def completed(self) -> "dict[tuple[str, str], dict]":
        """Outcome entries keyed by ``(name, doc_sha)``.

        Later frames win (a document journaled twice — e.g. resumed
        twice — replays its most recent outcome).
        """
        done: dict[tuple[str, str], dict] = {}
        for entry in self.entries:
            done[(entry["record"]["name"], entry["doc_sha"])] = entry
        return done

    def matches(self, config_fingerprint: str,
                network_fingerprint: str) -> bool:
        """Whether this journal was written under the given run identity."""
        return (
            self.meta.get("config") == config_fingerprint
            and self.meta.get("network") == network_fingerprint
        )


def _scan_frames(data: bytes) -> "tuple[list[dict], int]":
    """The intact frames at the head of ``data`` and where they end.

    Scanning stops at the first frame that fails its magic, length,
    CRC or JSON check: everything before it proved itself.
    """
    frames: list[dict] = []
    offset = 0
    while len(data) - offset >= _FRAME.size:
        magic, crc, length = _FRAME.unpack_from(data, offset)
        body_start = offset + _FRAME.size
        if (
            magic != _MAGIC
            or length > len(data) - body_start
        ):
            break
        body = data[body_start:body_start + length]
        if zlib.crc32(body) != crc:
            break
        try:
            payload = json.loads(body)
        except ValueError:  # lint: disable=silent-degrade  # torn/corrupt tail is surfaced via truncated_bytes
            break
        if not isinstance(payload, dict):
            break
        frames.append(payload)
        offset = body_start + length
    return frames, offset


def read_journal(path: "str | os.PathLike[str]") -> JournalReplay:
    """Decode a journal, salvaging every intact frame.

    Decoding stops at the first frame that fails its magic, length, or
    CRC check: everything before it is trusted (each earlier frame
    proved itself), everything from it on is reported as
    ``truncated_bytes``.  Raises :class:`JournalError` when the file is
    missing, is empty, or does not start with a valid meta frame of a
    supported version.
    """
    path = os.fspath(path)
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise JournalError(f"cannot read journal {path}: {exc}") from None
    frames, offset = _scan_frames(data)
    if not frames:
        raise JournalError(
            f"journal {path} holds no valid frames "
            f"(empty file or corrupt head)"
        )
    meta = frames[0]
    if meta.get("kind") != "meta":
        raise JournalError(f"journal {path} does not start with a meta frame")
    if meta.get("version") != JOURNAL_VERSION:
        raise JournalError(
            f"journal {path} has version {meta.get('version')!r}; "
            f"this build reads version {JOURNAL_VERSION}"
        )
    entries = [
        frame for frame in frames[1:]
        if frame.get("kind") == "outcome" and "record" in frame
    ]
    return JournalReplay(
        path=path,
        meta=meta,
        entries=entries,
        truncated_bytes=len(data) - offset,
    )
