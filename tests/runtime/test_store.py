"""RXPD shard store: persistence, damage, backing parity, pools.

Three contracts are pinned here:

* **shard round-trip** — ``write_shard`` → ``from_mmap`` reproduces
  every table exactly with ``backing == "mmap"``, and a truncated,
  corrupted, mismatched or (under a fingerprint check) unstamped
  shard raises the typed :class:`PackedIndexError` family instead of
  mis-attaching;
* **backing parity** — mmap attach, in-memory packed build and the
  network walk all produce bit-identical batch JSONL (the backing
  never changes a score);
* **forked workers** — pool workers fork with the parent's index,
  heap-built or shard-backed: no worker attaches, builds or writes
  one, and results are identical to the serial path.
"""

from __future__ import annotations

import os
import re
import struct

import pytest

from repro.runtime import (
    BatchExecutor,
    PackedIndex,
    PackedIndexCRCError,
    PackedIndexError,
    PackedIndexTruncatedError,
    read_shard_header,
    verify_shard,
    write_shard,
)
from .test_pack import _assert_query_parity, _sample_pairs


@pytest.fixture()
def lexicon_shard(lexicon, tmp_path):
    """The curated lexicon packed to an RXPD shard (fingerprinted)."""
    path = str(tmp_path / "lexicon.rxpd")
    write_shard(PackedIndex(lexicon), path, fingerprint=lexicon.fingerprint())
    return path


def _attach(path, **kwargs):
    return PackedIndex.from_mmap(path, **kwargs)


def _section_offset(payload, section):
    """File offset of one body section's payload in an RXPD shard."""
    offset = 32  # disk header
    for _ in range(section):
        (length,) = struct.unpack_from("<I", payload, offset)
        offset += 8 + ((length + 7) & ~7)
    return offset + 8


class TestShardRoundTrip:
    def test_mmap_attach_reproduces_every_query(
        self, lexicon, lexicon_shard
    ):
        packed = _attach(lexicon_shard)
        assert packed.backing == "mmap"
        assert packed.shard_path == lexicon_shard
        assert len(packed) == len(lexicon)
        _assert_query_parity(lexicon, packed, _sample_pairs(lexicon))

    def test_attach_defers_decode_then_len_is_cheap(self, lexicon_shard):
        packed = _attach(lexicon_shard)
        # __len__ must not force materialization (the zero-copy
        # cold-start contract: attach + size is decode-free).
        assert len(packed) > 0
        assert packed._lazy_blobs is not None

    def test_write_is_atomic_no_temp_residue(self, lexicon, tmp_path):
        path = tmp_path / "atomic.rxpd"
        write_shard(PackedIndex(lexicon), path)
        leftovers = [p for p in os.listdir(tmp_path) if ".tmp." in p]
        assert leftovers == []
        assert path.is_file()

    def test_header_reports_size_and_fingerprint(
        self, lexicon, lexicon_shard, tmp_path
    ):
        header = read_shard_header(lexicon_shard)
        assert header["version"] == 1
        assert header["file_bytes"] == os.path.getsize(lexicon_shard)
        assert header["body_bytes"] == header["file_bytes"] - 32
        assert lexicon.fingerprint().startswith(header["fingerprint"])
        # Unstamped shards report no fingerprint at all.
        bare = str(tmp_path / "bare.rxpd")
        write_shard(PackedIndex(lexicon), bare)
        assert read_shard_header(bare)["fingerprint"] is None

    def test_verify_shard_passes_on_intact_file(self, lexicon, lexicon_shard):
        stats = verify_shard(lexicon_shard)
        assert stats["concepts"] == len(lexicon)
        assert stats["shard_bytes"] == os.path.getsize(lexicon_shard)


class TestDamagedShards:
    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            _attach(str(tmp_path / "nope.rxpd"))

    def test_short_header_raises_truncated(self, tmp_path, lexicon_shard):
        stub = tmp_path / "stub.rxpd"
        stub.write_bytes(open(lexicon_shard, "rb").read()[:16])
        with pytest.raises(PackedIndexTruncatedError):
            _attach(str(stub))
        with pytest.raises(PackedIndexTruncatedError):
            read_shard_header(str(stub))

    @pytest.mark.parametrize("damage, error, message", [
        (lambda p: p[:16], PackedIndexTruncatedError,
         "shard file shorter than the RXPD header"),
        (lambda p: b"NOPE" + p[4:], PackedIndexError,
         "not an RXPD shard file (bad magic)"),
        (lambda p: p[:4] + struct.pack("<H", 9) + p[6:], PackedIndexError,
         "unsupported shard version 9"),
        (lambda p: p[:6] + bytes([p[6] ^ 1]) + p[7:], PackedIndexError,
         "shard file has a foreign byte order"),
        (lambda p: p[:-8], PackedIndexTruncatedError,
         "shard truncated: header declares"),
    ], ids=["short", "magic", "version", "byte-order", "body"])
    def test_both_header_readers_raise_alike(
        self, tmp_path, lexicon_shard, damage, error, message
    ):
        """One header parser: attach and ``read_shard_header`` refuse a
        damaged header with the same typed error and message."""
        bad = tmp_path / "header.rxpd"
        bad.write_bytes(damage(open(lexicon_shard, "rb").read()))
        raised = []
        for reader in (_attach, read_shard_header):
            with pytest.raises(error, match=re.escape(message)) as excinfo:
                reader(str(bad))
            raised.append((type(excinfo.value), str(excinfo.value)))
        assert raised[0] == raised[1]

    def test_bad_magic_raises(self, tmp_path, lexicon_shard):
        payload = bytearray(open(lexicon_shard, "rb").read())
        payload[:4] = b"NOPE"
        bad = tmp_path / "bad.rxpd"
        bad.write_bytes(payload)
        with pytest.raises(PackedIndexError):
            _attach(str(bad))

    def test_mid_section_truncation_raises_truncated(
        self, tmp_path, lexicon_shard
    ):
        payload = open(lexicon_shard, "rb").read()
        for fraction in (0.3, 0.7, 0.95):
            cut = tmp_path / f"cut-{fraction}.rxpd"
            cut.write_bytes(payload[: int(len(payload) * fraction)])
            with pytest.raises(PackedIndexTruncatedError):
                _attach(str(cut))

    def test_flipped_body_byte_fails_crc_verify(
        self, tmp_path, lexicon_shard
    ):
        payload = bytearray(open(lexicon_shard, "rb").read())
        payload[len(payload) // 2] ^= 0xFF
        bad = tmp_path / "crc.rxpd"
        bad.write_bytes(payload)
        with pytest.raises(PackedIndexCRCError):
            _attach(str(bad), verify=True)
        with pytest.raises(PackedIndexCRCError):
            verify_shard(str(bad))

    def test_undecodable_typecode_raises_packed_index_error(
        self, tmp_path, lexicon_shard
    ):
        payload = bytearray(open(lexicon_shard, "rb").read())
        payload[_section_offset(payload, 2)] = 0xFF  # depths typecode
        bad = tmp_path / "typecode.rxpd"
        bad.write_bytes(payload)
        with pytest.raises(PackedIndexError, match="array section"):
            _attach(str(bad))

    def test_undecodable_id_table_raises_packed_index_error(
        self, tmp_path, lexicon_shard
    ):
        payload = bytearray(open(lexicon_shard, "rb").read())
        payload[_section_offset(payload, 1)] = 0xFF  # first id byte
        bad = tmp_path / "ids.rxpd"
        bad.write_bytes(payload)
        packed = _attach(str(bad))  # the string tables decode lazily
        with pytest.raises(PackedIndexError, match="undecodable"):
            packed.concept_id(0)

    def test_fingerprint_mismatch_raises(self, lexicon, lexicon_shard,
                                         tmp_path):
        with pytest.raises(PackedIndexError):
            _attach(lexicon_shard, expect_fingerprint="ab" * 32)
        # An unstamped shard cannot show which network it came from.
        bare = str(tmp_path / "bare.rxpd")
        write_shard(PackedIndex(lexicon), bare)
        with pytest.raises(PackedIndexError, match="no network fingerprint"):
            _attach(bare, expect_fingerprint=lexicon.fingerprint())

    def test_matching_fingerprint_attaches(self, lexicon, lexicon_shard):
        packed = _attach(
            lexicon_shard, expect_fingerprint=lexicon.fingerprint()
        )
        assert len(packed) == len(lexicon)


class TestResilienceLadder:
    def test_mmap_heap_walk_batches_are_bit_identical(
        self, lexicon, lexicon_shard, figure1_xml
    ):
        """mmap, heap and the network walk yield the same JSONL bytes."""
        docs = [(f"doc-{i}", figure1_xml) for i in range(3)]
        outputs = []
        for index, use_index in (
            (_attach(lexicon_shard), True),  # mmap shard
            (PackedIndex(lexicon), True),    # in-memory packed
            (None, False),                   # network walk
        ):
            with BatchExecutor(
                lexicon, index=index, use_index=use_index
            ) as executor:
                records = executor.run(docs)
            outputs.append([r.to_json_line() for r in records])
        assert outputs[0] == outputs[1] == outputs[2]


class TestWorkerShipping:
    def test_pool_workers_fork_with_the_parents_index(
        self, lexicon, lexicon_shard, figure1_xml, monkeypatch
    ):
        """Heap-built or attached, the parent's index reaches workers
        through the fork: no worker attaches, builds or writes one."""
        docs = [(f"doc-{i}", figure1_xml) for i in range(4)]
        with BatchExecutor(lexicon) as serial_executor:
            serial = [r.to_json_line() for r in serial_executor.run(docs)]
        indexes = [PackedIndex(lexicon), _attach(lexicon_shard)]

        def refuse(*args, **kwargs):
            raise AssertionError("an index was attached, built or written")

        for name in ("from_mmap", "__init__", "to_disk_payload"):
            monkeypatch.setattr(PackedIndex, name, refuse)
        for index in indexes:
            with BatchExecutor(
                lexicon, workers=2, index=index, oversubscribe=True
            ) as executor:
                records = executor.run(docs)
            assert all(r.ok for r in records), index.backing
            assert all(r.worker_stats for r in records)  # workers scored
            assert [r.to_json_line() for r in records] == serial


class TestDamageMarks:
    def test_header_exposes_the_body_crc(self, lexicon_shard):
        header = read_shard_header(lexicon_shard)
        assert isinstance(header["crc"], int)
        # The stamped CRC is what a verified attach checks: it must
        # match an independent recomputation over the body bytes.
        import zlib
        with open(lexicon_shard, "rb") as fh:
            fh.seek(32)
            body = fh.read(header["body_bytes"])
        assert zlib.crc32(body) == header["crc"]
