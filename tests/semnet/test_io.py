"""Unit tests for semantic network persistence."""

from __future__ import annotations

import gc
import json
import threading

import pytest

from repro.semnet import build_lexicon, default_lexicon
from repro.semnet.builders import NetworkBuilder
from repro.semnet import io as io_module
from repro.semnet.concepts import Relation
from repro.semnet.io import (
    FORMAT_NAME,
    NetworkFormatError,
    load_network,
    network_from_dict,
    network_to_dict,
    save_network,
)


@pytest.fixture()
def small():
    b = NetworkBuilder("small")
    b.synset("a", ["alpha", "first"], "the first letter", freq=4)
    b.synset("b", ["beta"], "the second letter", hypernym="a", freq=2)
    b.synset("c", ["gamma"], "the third letter", part_of="a",
             similar_to="b")
    return b.build()


class TestRoundTrip:
    def test_dict_roundtrip_preserves_everything(self, small):
        restored = network_from_dict(network_to_dict(small))
        assert restored.name == small.name
        assert [c.id for c in restored] == [c.id for c in small]
        for concept in small:
            copy = restored.concept(concept.id)
            assert copy.words == concept.words
            assert copy.gloss == concept.gloss
            assert copy.frequency == concept.frequency
        assert restored.hypernyms("b") == ["a"]
        assert "a" in restored.neighbors("c", [Relation.PART_HOLONYM])
        assert "b" in restored.neighbors("c", [Relation.SIMILAR])

    def test_file_roundtrip(self, small, tmp_path):
        path = tmp_path / "net.json"
        save_network(small, path)
        restored = load_network(path)
        assert network_to_dict(restored) == network_to_dict(small)

    def test_save_is_canonical(self, small, tmp_path):
        path_a = tmp_path / "a.json"
        path_b = tmp_path / "b.json"
        save_network(small, path_a)
        save_network(load_network(path_a), path_b)
        assert path_a.read_text() == path_b.read_text()

    def test_full_lexicon_roundtrip(self, tmp_path):
        lexicon = build_lexicon()
        path = tmp_path / "lexicon.json"
        save_network(lexicon, path)
        restored = load_network(path)
        assert restored.stats() == lexicon.stats()
        assert restored.polysemy("head") == 33
        # Taxonomy intact: depths agree on a sample.
        for concept_id in ("actor.n.01", "star.n.02", "plant.n.02"):
            assert restored.depth(concept_id) == lexicon.depth(concept_id)

    def test_symmetric_relations_stored_once(self, small):
        document = network_to_dict(small)
        similar = [
            r for r in document["relations"] if r["relation"] == "similar"
        ]
        assert len(similar) == 1


class TestValidation:
    def test_wrong_format_rejected(self):
        for document in (
            {"format": "something-else", "version": 1},
            [{"format": FORMAT_NAME, "version": 1}],
            "repro-semnet",
        ):
            with pytest.raises(NetworkFormatError, match="not a"):
                network_from_dict(document)

    def test_wrong_version_rejected(self):
        with pytest.raises(NetworkFormatError, match="version"):
            network_from_dict({"format": FORMAT_NAME, "version": 99})

    def test_bad_concept_rejected(self):
        for concepts in (
            [{"id": "x"}],
            [{"id": "x", "words": [5], "gloss": "g"}],
            # A string is not a word list: it must not split into the
            # one-letter senses s, t, a and r.
            [{"id": "x", "words": "star", "gloss": "g"}],
            [{"id": "x", "words": [], "gloss": "g"}],
            [{"id": "x", "words": ["a"]}, {"id": "x", "words": ["b"]}],
            ["x"],
        ):
            with pytest.raises(NetworkFormatError, match="bad concept"):
                network_from_dict({
                    "format": FORMAT_NAME, "version": 1,
                    "concepts": concepts, "relations": [],
                })

    def test_bad_relation_rejected(self, small):
        for entry in (
            {"source": "a", "relation": "teleports-to", "target": "b"},
            {"source": "a", "relation": "hypernym", "target": "zeta"},
            ["a", "hypernym", "b"],
        ):
            document = network_to_dict(small)
            document["relations"].append(entry)
            with pytest.raises(NetworkFormatError, match="bad relation"):
                network_from_dict(document)

    def test_invalid_json_file(self, tmp_path):
        path = tmp_path / "broken.json"
        for payload in (b"{not json", b'{"name": "caf\xe9"}'):
            path.write_bytes(payload)
            with pytest.raises(NetworkFormatError, match="invalid JSON"):
                load_network(path)

    def test_saved_file_is_valid_json(self, small, tmp_path):
        path = tmp_path / "net.json"
        save_network(small, path)
        document = json.loads(path.read_text())
        assert document["format"] == FORMAT_NAME


class TestFingerprintPin:
    """The digest stamped into RXPD shard headers and RXJF journal meta.

    Both fixture caches (perfbench's and the store smoke's) are keyed
    on it, so a change in its value rebuilds every cached shard.
    """

    LEXICON_FINGERPRINT = (
        "9cd0e3e99be08a79994a811b2bc371df13427270aedcfa31f4dd997863e61e0d"
    )

    def test_lexicon_fingerprint_is_pinned(self):
        assert default_lexicon().fingerprint() == self.LEXICON_FINGERPRINT

    def test_fingerprint_survives_save_and_load(self, tmp_path):
        path = tmp_path / "lexicon.json"
        save_network(default_lexicon(), path)
        assert load_network(path).fingerprint() == self.LEXICON_FINGERPRINT


class TestCollectorContract:
    """``load_network`` keeps the network it builds out of young passes."""

    @pytest.fixture()
    def files(self, small, tmp_path):
        good = tmp_path / "good.json"
        save_network(small, good)
        bad = tmp_path / "bad.json"
        bad.write_text('{"format": "x"}', encoding="utf-8")
        return {"good": good, "bad": bad}

    @pytest.mark.parametrize("enabled", [True, False])
    @pytest.mark.parametrize("kind", ["good", "bad"])
    def test_enabled_state_is_restored(self, files, enabled, kind):
        was_enabled = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            if kind == "good":
                load_network(files[kind])
            else:
                with pytest.raises(NetworkFormatError):
                    load_network(files[kind])
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was_enabled else gc.disable)()

    def test_concurrent_loads_are_serialized(self, files, monkeypatch):
        """A second load waits for the first, so their save and restore
        of the collector state cannot interleave."""
        read = io_module._read_document
        first_inside, release = threading.Event(), threading.Event()
        entered = []

        def blocking_read(path):
            entered.append(path)
            if len(entered) == 1:
                first_inside.set()
                release.wait(timeout=10)
            return read(path)

        monkeypatch.setattr(io_module, "_read_document", blocking_read)
        threads = [
            threading.Thread(target=load_network, args=(files["good"],))
            for _ in range(2)
        ]
        threads[0].start()
        assert first_inside.wait(timeout=10)
        threads[1].start()
        threads[1].join(timeout=0.2)
        assert len(entered) == 1
        release.set()
        for thread in threads:
            thread.join(timeout=10)
        assert not any(thread.is_alive() for thread in threads)
        assert len(entered) == 2
        assert gc.isenabled()

    def test_freeze_count_and_caller_freeze_are_kept(self, files):
        assert gc.get_freeze_count() == 0
        load_network(files["good"])
        assert gc.get_freeze_count() == 0
        marker = [object()]
        gc.freeze()
        try:
            frozen = gc.get_freeze_count()
            load_network(files["good"])
            assert gc.get_freeze_count() == frozen
            # Still frozen: not back in any collectable generation.
            assert not any(
                obj is marker
                for generation in range(3)
                for obj in gc.get_objects(generation=generation)
            )
        finally:
            gc.unfreeze()

    def test_loaded_containers_are_in_the_oldest_generation(self, tmp_path):
        path = tmp_path / "lexicon.json"
        save_network(default_lexicon(), path)
        network = load_network(path)
        containers = [
            network._concepts, network._by_word, network._edges,
            *network._concepts.values(),
            *network._by_word.values(),
            *network._edges.values(),
            *(
                targets
                for edge_map in network._edges.values()
                for targets in edge_map.values()
            ),
        ]
        young = {
            id(obj)
            for generation in (0, 1)
            for obj in gc.get_objects(generation=generation)
        }
        assert len(containers) > 2000
        assert [c for c in containers if id(c) in young] == []
