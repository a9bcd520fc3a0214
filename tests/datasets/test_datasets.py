"""Tests for the synthetic corpus generators and registry."""

from __future__ import annotations

import pytest

from repro.datasets import (
    DATASETS,
    GROUPS,
    dataset,
    generate_test_corpus,
)
from repro.datasets.stats import (
    aggregate,
    compute_stats,
    dataset_stats,
    document_tree,
    group_struct_degrees,
)
from repro.xmltree.dtd import parse_dtd
from repro.xmltree.parser import parse


@pytest.fixture(scope="module")
def corpus():
    return generate_test_corpus()


class TestRegistry:
    def test_ten_datasets_four_groups(self):
        assert len(DATASETS) == 10
        assert set(GROUPS) == {1, 2, 3, 4}
        names = {spec.name for spec in DATASETS}
        assert names == {n for group in GROUPS.values() for n in group}

    def test_document_counts_match_table3(self):
        counts = {spec.name: spec.n_docs for spec in DATASETS}
        assert counts["shakespeare"] == 10
        assert counts["amazon_product"] == 10
        assert counts["niagara_bib"] == 8
        assert counts["sigmod_record"] == 6
        assert counts["cd_catalog"] == 4

    def test_lookup(self):
        assert dataset("shakespeare").group == 1
        with pytest.raises(KeyError):
            dataset("unknown")


class TestGeneration:
    def test_full_collection_size(self, corpus):
        assert len(corpus) == sum(spec.n_docs for spec in DATASETS)

    def test_determinism(self, corpus):
        again = generate_test_corpus()
        assert [d.xml for d in corpus] == [d.xml for d in again]

    def test_different_seed_changes_content(self, corpus):
        other = generate_test_corpus(seed=99)
        assert [d.xml for d in corpus] != [d.xml for d in other]

    def test_documents_distinct_within_dataset(self, corpus):
        for spec in DATASETS:
            docs = corpus.by_dataset(spec.name)
            assert len({d.xml for d in docs}) > 1, spec.name

    def test_every_document_well_formed(self, corpus):
        for doc in corpus:
            parse(doc.xml)

    def test_every_document_dtd_valid(self, corpus):
        for spec in DATASETS:
            dtd = parse_dtd(spec.dtd)
            for doc in corpus.by_dataset(spec.name):
                dtd.validate(parse(doc.xml).root)

    def test_group_assignment_consistent(self, corpus):
        for spec in DATASETS:
            for doc in corpus.by_dataset(spec.name):
                assert doc.group == spec.group

    def test_names_unique(self, corpus):
        names = [doc.name for doc in corpus]
        assert len(names) == len(set(names))


class TestGoldAnnotations:
    def test_gold_labels_occur_in_trees(self, corpus, lexicon):
        # Each dataset's gold map must be exercised by its documents:
        # every document contains at least a handful of gold labels,
        # and every gold label occurs somewhere in the dataset.
        for spec in DATASETS:
            seen: set[str] = set()
            for doc in corpus.by_dataset(spec.name):
                tree = document_tree(doc, lexicon)
                labels = {node.label for node in tree}
                covered = labels & set(doc.gold)
                assert len(covered) >= 5, (spec.name, doc.name)
                seen |= covered
            missing = set(spec.gold) - seen
            assert not missing, (spec.name, missing)

    def test_gold_senses_are_real_candidates(self, corpus, lexicon):
        from repro.core.candidates import candidate_senses

        for spec in DATASETS[:3]:
            doc = corpus.by_dataset(spec.name)[0]
            tree = document_tree(doc, lexicon)
            for node in tree:
                expected = doc.gold.get(node.label)
                if expected is None:
                    continue
                candidates = candidate_senses(node, lexicon)
                assert any(expected in c for c in candidates), node.label


class TestStatistics:
    def test_compute_stats_fields(self, corpus, lexicon):
        doc = corpus.by_group(1)[0]
        stats = compute_stats(document_tree(doc, lexicon), lexicon)
        assert stats.n_nodes > 100
        assert stats.max_depth >= stats.avg_depth
        assert stats.max_fan_out >= stats.avg_fan_out
        assert 0.0 <= stats.amb_degree <= 1.0
        assert 0.0 <= stats.struct_degree <= 1.0

    def test_aggregate_averages(self, corpus, lexicon):
        docs = corpus.by_dataset("cd_catalog")
        per_doc = [
            compute_stats(document_tree(d, lexicon), lexicon) for d in docs
        ]
        agg = aggregate(per_doc)
        assert min(s.avg_depth for s in per_doc) <= agg.avg_depth <= \
            max(s.avg_depth for s in per_doc)
        assert agg.max_polysemy == max(s.max_polysemy for s in per_doc)

    def test_corpus_aggregate_is_pinned(self, corpus, lexicon):
        """The corpus-wide Table 1 figures, to the bit.  Their averages
        sum left to right from 0.0, so CPython 3.11, 3.12 and 3.13 read
        the same bits (3.12's compensated ``sum()`` moved the last bits
        of five of them).  ``document_tree`` parses every document, so
        the pin also holds the parser to the corpus."""
        stats = aggregate([
            compute_stats(document_tree(d, lexicon), lexicon) for d in corpus
        ])
        assert {
            name: float.hex(getattr(stats, name)) for name in (
                "avg_polysemy", "avg_depth", "avg_fan_out", "avg_density",
                "amb_degree", "struct_degree",
            )
        } == {
            "avg_polysemy": "0x1.8a0eef95efc20p+0",
            "avg_depth": "0x1.83ce96be070e2p+1",
            "avg_fan_out": "0x1.f8fe08462c142p-1",
            "avg_density": "0x1.da8ca38b15017p-1",
            "amb_degree": "0x1.e80e195da0cf0p-7",
            "struct_degree": "0x1.6d538e6af7cf5p-2",
        }
        assert (
            stats.n_nodes, stats.max_polysemy, stats.max_depth,
            stats.max_fan_out, stats.max_density,
        ) == (191, 33, 5, 11, 8)

    def test_aggregate_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate([])

    def test_dataset_stats_covers_all(self, corpus, lexicon):
        stats = dataset_stats(corpus, lexicon)
        assert set(stats) == {spec.name for spec in DATASETS}

    def test_group_quadrants(self, corpus, lexicon):
        """The 2x2 ambiguity-structure design of Table 1."""
        from repro.datasets.stats import group_stats

        amb = {g: s.amb_degree for g, s in group_stats(corpus, lexicon).items()}
        struct = group_struct_degrees(corpus, lexicon)
        assert min(amb[1], amb[2]) > max(amb[3], amb[4])
        assert struct[1] > max(struct[2], struct[4])
        assert struct[3] > max(struct[2], struct[4])
