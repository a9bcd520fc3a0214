"""The outcome journal (WAL): framing, torn tails, resume semantics.

The journal's contract is narrow and hard: every intact frame replays
the exact ``to_dict`` payload the crashed run recorded, a torn tail is
detected and dropped (never mistaken for a completed document), and a
journal written under a different config/network identity is refused.
These tests pin the frame codec, the salvage behavior byte-by-byte, and
the ``(name, sha256(xml))`` keying that invalidates edited documents.
"""

from __future__ import annotations

import hashlib
import json
import os

import pytest

from repro.runtime import (
    JournalError,
    JournalWriter,
    document_digest,
    read_journal,
)
from repro.runtime import journal as journal_module
from repro.runtime.executor import BatchRecord
from repro.runtime.journal import _FRAME, _MAGIC, _encode_frame
from repro.runtime.resilience import STATUS_FAILED, STATUS_OK, DocOutcome


def _record(name: str, result: str = "ok", error: "str | None" = None,
            outcome: "DocOutcome | None" = None) -> BatchRecord:
    if outcome is None:
        outcome = DocOutcome(
            name=name, status=STATUS_FAILED if error else STATUS_OK,
            error=error or "",
        )
    return BatchRecord(
        name=name, result=None if error else result, error=error,
        elapsed_s=0.01, outcome=outcome,
    )


class TestFrameCodec:
    def test_frame_is_magic_crc_length_then_canonical_json(self):
        frame = _encode_frame({"b": 1, "a": 2})
        magic, crc, length = _FRAME.unpack_from(frame)
        body = frame[_FRAME.size:]
        assert magic == _MAGIC
        assert length == len(body)
        # Canonical JSON: sorted keys, so identical payloads encode
        # identically regardless of insertion order.
        assert body == json.dumps({"a": 2, "b": 1}, sort_keys=True).encode()

    def test_document_digest_is_sha256_of_utf8(self):
        xml = "<a>é</a>"
        assert document_digest(xml) == hashlib.sha256(
            xml.encode("utf-8")
        ).hexdigest()


class TestWriterRoundTrip:
    def test_round_trip_preserves_records_and_outcomes(self, tmp_path):
        path = tmp_path / "batch.rxjf"
        meta = {"config": "cfg-fp", "network": "net-fp"}
        outcome = DocOutcome(name="b", attempts=2)
        with JournalWriter(path, meta=meta) as journal:
            journal.append(_record("a"), document_digest("<a/>"))
            journal.append(
                _record("b", outcome=outcome), document_digest("<b/>")
            )
            journal.append(
                _record("c", error="boom"), document_digest("<c/>")
            )
        replay = read_journal(path)
        assert replay.truncated_bytes == 0
        assert replay.matches("cfg-fp", "net-fp")
        assert not replay.matches("other", "net-fp")
        assert [e["record"]["name"] for e in replay.entries] == ["a", "b", "c"]
        assert replay.entries[0]["record"] == _record("a").to_dict()
        assert replay.entries[0]["outcome"] == DocOutcome("a").to_dict()
        assert replay.entries[1]["outcome"] == outcome.to_dict()
        assert replay.entries[2]["record"]["error"] == "boom"
        assert replay.entries[2]["outcome"]["status"] == STATUS_FAILED

    def test_completed_keys_by_name_and_digest_later_wins(self, tmp_path):
        path = tmp_path / "batch.rxjf"
        digest = document_digest("<a/>")
        with JournalWriter(path, meta={}) as journal:
            journal.append(_record("a", result="first"), digest)
            journal.append(_record("a", result="second"), digest)
            journal.append(_record("a"), document_digest("<edited/>"))
        done = read_journal(path).completed()
        # Same name under two digests = two distinct entries; the
        # repeated (name, digest) pair keeps only the later record.
        assert len(done) == 2
        assert done[("a", digest)]["record"]["result"] == "second"

    def test_resume_appends_without_a_second_meta_frame(self, tmp_path):
        path = tmp_path / "batch.rxjf"
        with JournalWriter(path, meta={"config": "c", "network": "n"}) as j:
            j.append(_record("a"), document_digest("<a/>"))
        with JournalWriter(path, meta={"config": "c", "network": "n"},
                           resume=True) as j:
            j.append(_record("b"), document_digest("<b/>"))
        replay = read_journal(path)
        assert replay.meta["config"] == "c"
        assert [e["record"]["name"] for e in replay.entries] == ["a", "b"]
        assert not any(e.get("kind") == "meta" for e in replay.entries)

    def test_resume_on_missing_file_writes_the_meta_frame(self, tmp_path):
        path = tmp_path / "fresh.rxjf"
        with JournalWriter(path, meta={"config": "c", "network": "n"},
                           resume=True) as j:
            j.append(_record("a"), document_digest("<a/>"))
        assert read_journal(path).matches("c", "n")

    def test_fsync_batching_counts_pending_frames(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(journal_module, "FSYNC_EVERY", 3)
        path = tmp_path / "batch.rxjf"
        journal = JournalWriter(path, meta={})
        flushes = []
        original = journal.flush
        journal.flush = lambda: flushes.append(journal._pending) or original()
        for i in range(7):
            journal.append(_record(f"d{i}"), document_digest(str(i)))
        # 3 pending frames trigger each fsync; the tail waits for close.
        assert flushes == [3, 3]
        journal.close()
        assert flushes == [3, 3, 1]
        assert read_journal(path).truncated_bytes == 0

    def test_close_is_idempotent(self, tmp_path):
        path = tmp_path / "batch.rxjf"
        journal = JournalWriter(path, meta={})
        journal.close()
        journal.close()
        assert read_journal(path).entries == []


class TestTornTails:
    def _journal_with(self, tmp_path, n: int = 3) -> str:
        path = tmp_path / "batch.rxjf"
        with JournalWriter(path, meta={"config": "c", "network": "n"}) as j:
            for i in range(n):
                j.append(_record(f"d{i}"), document_digest(str(i)))
        return os.fspath(path)

    def test_mid_frame_truncation_drops_only_the_tail(self, tmp_path):
        path = self._journal_with(tmp_path)
        size = os.path.getsize(path)
        with open(path, "r+b") as fh:
            fh.truncate(size - 7)
        replay = read_journal(path)
        assert [e["record"]["name"] for e in replay.entries] == ["d0", "d1"]
        assert replay.truncated_bytes > 0

    def test_corrupt_tail_crc_drops_only_the_tail(self, tmp_path):
        path = self._journal_with(tmp_path)
        with open(path, "r+b") as fh:
            fh.seek(-1, os.SEEK_END)
            last = fh.read(1)
            fh.seek(-1, os.SEEK_END)
            fh.write(bytes([last[0] ^ 0xFF]))
        replay = read_journal(path)
        assert [e["record"]["name"] for e in replay.entries] == ["d0", "d1"]
        assert replay.truncated_bytes > 0

    def test_garbage_appended_after_valid_frames_is_reported(self, tmp_path):
        path = self._journal_with(tmp_path)
        with open(path, "ab") as fh:
            fh.write(b"\x00garbage-not-a-frame")
        replay = read_journal(path)
        assert len(replay.entries) == 3
        assert replay.truncated_bytes == len(b"\x00garbage-not-a-frame")

    def test_resume_cuts_a_torn_tail_before_appending(self, tmp_path):
        # A kill mid-write leaves a partial frame; frames appended after
        # it would sit past the point where read_journal stops.
        path = self._journal_with(tmp_path, n=1)
        with open(path, "ab") as fh:
            fh.write(_encode_frame({"kind": "outcome"})[:6])
        with JournalWriter(path, meta={"config": "c", "network": "n"},
                           resume=True) as j:
            for i in (1, 2):
                j.append(_record(f"d{i}"), document_digest(str(i)))
        replay = read_journal(path)
        assert [e["record"]["name"] for e in replay.entries] == [
            "d0", "d1", "d2",
        ]
        assert replay.truncated_bytes == 0

    def test_missing_empty_and_headless_journals_raise(self, tmp_path):
        with pytest.raises(JournalError):
            read_journal(tmp_path / "absent.rxjf")
        empty = tmp_path / "empty.rxjf"
        empty.write_bytes(b"")
        with pytest.raises(JournalError):
            read_journal(empty)
        headless = tmp_path / "headless.rxjf"
        headless.write_bytes(_encode_frame({
            "kind": "outcome", "doc_sha": "x",
            "record": {"name": "a", "ok": True},
        }))
        with pytest.raises(JournalError, match="meta"):
            read_journal(headless)

    def test_unsupported_version_is_refused(self, tmp_path):
        path = tmp_path / "future.rxjf"
        path.write_bytes(_encode_frame({"kind": "meta", "version": 99}))
        with pytest.raises(JournalError, match="version"):
            read_journal(path)


class TestCrashWindow:
    def test_each_append_is_one_complete_os_level_write(self, tmp_path):
        # The torn-tail bound ("kill -9 loses at most the final frame")
        # holds only if a frame reaches the OS in one unbuffered write:
        # after every append, with no flush/close, the file must parse
        # cleanly to exactly the appended frames.
        path = tmp_path / "batch.rxjf"
        journal = JournalWriter(path, meta={"config": "c", "network": "n"})
        try:
            for i in range(5):
                journal.append(_record(f"d{i}"), document_digest(str(i)))
                replay = read_journal(path)
                assert len(replay.entries) == i + 1
                assert replay.truncated_bytes == 0
        finally:
            journal.close()
