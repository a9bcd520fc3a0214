"""RXPD shard store and registry: persistence, damage, routing, pools.

Four contracts are pinned here:

* **shard round-trip** — ``write_shard`` → ``from_mmap`` reproduces
  every table exactly with ``backing == "mmap"``, and a truncated,
  corrupted, or mismatched shard raises the typed
  :class:`PackedIndexError` family instead of mis-attaching;
* **backing parity** — mmap attach, in-memory packed build and the
  network walk all produce bit-identical batch JSONL (the backing
  never changes a score);
* **registry** — the TOML manifest loads, attaches LRU-bounded with
  the full body CRC check, degrades shardless (or damaged-shard)
  domains to heap builds, and routes documents by lexicon coverage
  deterministically;
* **worker shipping** — pool workers attach a shard-backed index by
  its own *path* (no temporary shard is written), with results
  identical to the serial path.
"""

from __future__ import annotations

import os
import pickle
import struct

import pytest

from repro.runtime import (
    BatchExecutor,
    PackedIndex,
    PackedIndexCRCError,
    PackedIndexError,
    PackedIndexTruncatedError,
    NetworkRegistry,
    RegistryError,
    read_shard_header,
    verify_shard,
    write_shard,
)
from repro.runtime.store import MmapIndexHandle, document_terms
from repro.semnet.generator import GeneratorConfig, generate_network
from repro.semnet.io import save_network

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

    def test_fingerprint_mismatch_raises(self, lexicon_shard):
        with pytest.raises(PackedIndexError):
            _attach(lexicon_shard, expect_fingerprint="ab" * 32)

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
    def test_pool_workers_attach_shard_by_path(
        self, lexicon, lexicon_shard, figure1_xml
    ):
        """A shard-backed index ships its own path: no temp shard."""
        docs = [(f"doc-{i}", figure1_xml) for i in range(4)]
        index = _attach(lexicon_shard)
        with BatchExecutor(
            lexicon, workers=2, index=index, oversubscribe=True
        ) as executor:
            parallel = [r.to_json_line() for r in executor.run(docs)]
            stats = executor.runtime_stats()
            assert executor._temp_shard is None
        assert stats["shard_bytes"] == os.path.getsize(lexicon_shard)
        with BatchExecutor(lexicon) as serial_executor:
            serial = [r.to_json_line() for r in serial_executor.run(docs)]
        assert parallel == serial

    def test_handle_is_a_small_frozen_ticket(self, lexicon_shard):
        handle = MmapIndexHandle(
            path=lexicon_shard, size=os.path.getsize(lexicon_shard)
        )
        assert len(pickle.dumps(handle)) < 500
        with pytest.raises(AttributeError):
            handle.path = "elsewhere"


def _registry_tree(tmp_path, shard_for=("alpha",), fallback=()):
    """Two-domain manifest: disjoint synthetic vocabularies."""
    nets = {}
    for name, seed in (("alpha", 101), ("beta", 202)):
        net = generate_network(GeneratorConfig(
            n_concepts=120, seed=seed, gloss_style="local"
        ))
        save_network(net, str(tmp_path / f"{name}.network.json"))
        if name in shard_for:
            write_shard(
                PackedIndex(net),
                str(tmp_path / f"{name}.rxpd"),
                fingerprint=net.fingerprint(),
            )
        nets[name] = net
    fallback_line = (
        "fallback = [{}]\n".format(
            ", ".join(f'"{fb}"' for fb in fallback)
        ) if fallback else ""
    )
    manifest = tmp_path / "registry.toml"
    manifest.write_text(
        'default = "alpha"\n'
        '\n'
        '[networks.alpha]\n'
        'network = "alpha.network.json"\n'
        + ('shard = "alpha.rxpd"\n' if "alpha" in shard_for else "")
        + fallback_line
        + '\n'
        '[networks.beta]\n'
        'network = "beta.network.json"\n'
        + ('shard = "beta.rxpd"\n' if "beta" in shard_for else "")
    )
    return str(manifest), nets


def _doc_for(network, n_words=8):
    """An XML document speaking ``network``'s vocabulary."""
    words = sorted(network.words())[:n_words]
    body = "".join(f"<{w}>{w}</{w}>" for w in words)
    return f"<record>{body}</record>"


class TestRegistry:
    def test_load_attach_and_backings(self, tmp_path):
        manifest, nets = _registry_tree(tmp_path, shard_for=("alpha",))
        with NetworkRegistry.load(manifest) as registry:
            assert registry.domains() == ("alpha", "beta")
            assert registry.default_domain == "alpha"
            assert registry.attach("alpha").index.backing == "mmap"
            # No shard declared: the registry builds in-memory instead.
            assert registry.attach("beta").index.backing == "heap"
            assert registry.stats()["attached"] == 2

    def test_attach_verifies_fingerprints_when_asked(self, tmp_path):
        manifest, nets = _registry_tree(
            tmp_path, shard_for=("alpha", "beta")
        )
        registry = NetworkRegistry.load(manifest, verify_fingerprints=True)
        try:
            assert registry.attach("alpha").index.backing == "mmap"
        finally:
            registry.close()

    def test_stale_shard_degrades_to_heap_build(self, tmp_path):
        manifest, nets = _registry_tree(tmp_path, shard_for=("alpha",))
        shard = tmp_path / "alpha.rxpd"

        def stale():
            # Alpha's shard holds beta's tables: the fingerprint check
            # must reject it.
            write_shard(
                PackedIndex(nets["beta"]), str(shard),
                fingerprint=nets["beta"].fingerprint(),
            )

        def malformed():
            # An undecodable array typecode must raise the typed error
            # the fallback catches, not a UnicodeDecodeError.
            write_shard(
                PackedIndex(nets["alpha"]), str(shard),
                fingerprint=nets["alpha"].fingerprint(),
            )
            payload = bytearray(shard.read_bytes())
            payload[_section_offset(payload, 2)] = 0xFF  # depths typecode
            shard.write_bytes(payload)

        def rotted():
            # One flipped body byte that still attaches and decodes:
            # only the body CRC can tell.
            write_shard(
                PackedIndex(nets["alpha"]), str(shard),
                fingerprint=nets["alpha"].fingerprint(),
            )
            payload = bytearray(shard.read_bytes())
            payload[-1] ^= 0xFF
            shard.write_bytes(payload)
            PackedIndex.from_mmap(str(shard))  # attaches unverified

        for damage in (stale, malformed, rotted):
            damage()
            # The attach must degrade to a heap build over the
            # *correct* network.
            registry = NetworkRegistry.load(
                manifest, verify_fingerprints=True
            )
            try:
                attached = registry.attach("alpha")
                assert attached.index.backing == "heap", damage.__name__
                assert len(attached.index) == len(nets["alpha"])
            finally:
                registry.close()

    def test_lru_eviction_keeps_evicted_index_usable(self, tmp_path):
        manifest, nets = _registry_tree(tmp_path, shard_for=("alpha",))
        registry = NetworkRegistry.load(manifest, max_attached=1)
        try:
            alpha = registry.attach("alpha")
            cid = next(iter(nets["alpha"])).id
            before = alpha.index.hypernym_closure(cid)
            registry.attach("beta")  # evicts alpha
            assert registry.stats()["attached"] == 1
            assert registry.stats()["evictions"] == 1
            # Eviction only drops the registry's reference: the index a
            # session still holds keeps its mapping and answers
            # identically.
            assert alpha.index.backing == "mmap"
            assert alpha.index.hypernym_closure(cid) == before
        finally:
            registry.close()

    def test_routing_prefers_covering_fallback(self, tmp_path):
        manifest, nets = _registry_tree(
            tmp_path, shard_for=(), fallback=("beta",)
        )
        registry = NetworkRegistry.load(manifest)
        try:
            home, cov = registry.route(_doc_for(nets["alpha"]))
            assert home == "alpha" and cov > 0.8
            away, away_cov = registry.route(_doc_for(nets["beta"]))
            assert away == "beta" and away_cov > 0.8
            assert registry.stats()["route_fallbacks"] == 1
        finally:
            registry.close()

    def test_routing_tie_keeps_primary(self, tmp_path):
        manifest, nets = _registry_tree(
            tmp_path, shard_for=(), fallback=("beta",)
        )
        registry = NetworkRegistry.load(manifest)
        try:
            # No alphabetic terms: every coverage is 0.0, a tie — the
            # primary must win deterministically.
            name, cov = registry.route("<a1><b2/></a1>")
            assert name == "alpha" and cov == 0.0
        finally:
            registry.close()

    def test_unknown_domain_and_bad_manifests_raise(self, tmp_path):
        manifest, _ = _registry_tree(tmp_path)
        registry = NetworkRegistry.load(manifest)
        try:
            with pytest.raises(RegistryError):
                registry.entry("gamma")
        finally:
            registry.close()
        broken = tmp_path / "broken.toml"
        broken.write_text("default = [not toml")
        with pytest.raises(RegistryError):
            NetworkRegistry.load(str(broken))
        with pytest.raises(RegistryError, match="cannot read"):
            NetworkRegistry.load(str(tmp_path / "missing.toml"))
        empty = tmp_path / "empty.toml"
        empty.write_text('default = "x"\n')
        with pytest.raises(RegistryError):
            NetworkRegistry.load(str(empty))
        nofb = tmp_path / "nofb.toml"
        nofb.write_text(
            '[networks.a]\nnetwork = "a.json"\nfallback = ["ghost"]\n'
        )
        with pytest.raises(RegistryError):
            NetworkRegistry.load(str(nofb))


    def test_unloadable_network_raises_registry_error(self, tmp_path):
        manifest, _ = _registry_tree(tmp_path)
        registry = NetworkRegistry.load(manifest)
        try:
            (tmp_path / "beta.network.json").write_text('{"format": "x"}')
            with pytest.raises(RegistryError, match="domain 'beta': not a"):
                registry.attach("beta")
            os.remove(tmp_path / "alpha.network.json")
            with pytest.raises(RegistryError, match="domain 'alpha': "):
                registry.attach("alpha")
        finally:
            registry.close()


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


class TestDocumentTerms:
    def test_terms_are_distinct_lowercased_and_ordered(self):
        terms = document_terms("<Book><title>The BOOK of books</title></Book>")
        assert terms == ("book", "title", "the", "of", "books")

    def test_malformed_xml_still_yields_terms(self):
        assert "broken" in document_terms("<broken <<< &&& markup")
