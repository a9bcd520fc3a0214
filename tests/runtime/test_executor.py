"""Batch executor determinism, equality with the seed pipeline, faults.

Two contracts are pinned here:

* the runtime (index + caches, serial or parallel) chooses **identical
  senses** to the seed implementation — checked per dataset across all
  ten generated datasets (equality, not tolerance);
* parallel output is **byte-identical** to serial output for the same
  corpus (JSONL line comparison).
"""

from __future__ import annotations

import pytest

from repro import XSDF, XSDFConfig
from repro.runtime import (
    BatchDocument,
    BatchExecutor,
    MetricsRegistry,
    PackedIndex,
)
from repro.runtime import executor as executor_module


def _jsonl(records) -> str:
    """The JSONL text ``repro batch`` writes for ``records``."""
    return "".join(record.to_json_line() + "\n" for record in records)


def _one_doc_per_dataset(corpus):
    docs = []
    for dataset in corpus.datasets():
        docs.append(corpus.by_dataset(dataset)[0])
    return docs


class TestSeedEquality:
    def test_identical_sense_choices_on_all_ten_datasets(
        self, lexicon, corpus
    ):
        """Runtime path == seed path, one document per dataset, d=2."""
        docs = _one_doc_per_dataset(corpus)
        assert len(docs) == 10
        executor = BatchExecutor(lexicon, XSDFConfig(), workers=1)
        records = executor.run([(d.name, d.xml) for d in docs])
        for doc, record in zip(docs, records):
            seed_result = XSDF(lexicon, XSDFConfig()).disambiguate_document(
                doc.xml
            )
            assert record.ok, record.error
            assert record.result == seed_result.to_dict(), doc.name

    def test_uncached_executor_matches_indexed(self, lexicon, corpus):
        docs = [(d.name, d.xml) for d in _one_doc_per_dataset(corpus)[:4]]
        indexed = BatchExecutor(lexicon, XSDFConfig(), workers=1)
        uncached = BatchExecutor(
            lexicon, XSDFConfig(), workers=1, use_index=False
        )
        lines_a = [r.to_json_line() for r in indexed.run(docs)]
        lines_b = [r.to_json_line() for r in uncached.run(docs)]
        assert lines_a == lines_b


class TestParallelDeterminism:
    def test_parallel_byte_identical_to_serial(self, lexicon, corpus):
        docs = [(d.name, d.xml) for d in _one_doc_per_dataset(corpus)[:6]]
        serial = BatchExecutor(lexicon, XSDFConfig(), workers=1)
        parallel = BatchExecutor(
            lexicon, XSDFConfig(), workers=2, chunk_size=1,
            oversubscribe=True,  # exercise the real pool on 1-CPU hosts
        )
        assert _jsonl(serial.run(docs)) == _jsonl(parallel.run(docs))

    def test_results_in_input_order(self, lexicon, corpus):
        docs = [(d.name, d.xml) for d in _one_doc_per_dataset(corpus)[:5]]
        reversed_docs = list(reversed(docs))
        executor = BatchExecutor(
            lexicon, XSDFConfig(), workers=2, oversubscribe=True
        )
        records = executor.run(reversed_docs)
        assert [r.name for r in records] == [name for name, _ in reversed_docs]

    def test_byte_identical_across_index_and_worker_modes(
        self, lexicon, corpus
    ):
        """{serial, parallel} x {network walk, packed index} all agree."""
        docs = [(d.name, d.xml) for d in _one_doc_per_dataset(corpus)[:4]]
        outputs = []
        for workers in (1, 2):
            for use_index in (False, True):
                executor = BatchExecutor(
                    lexicon, XSDFConfig(), workers=workers,
                    use_index=use_index, oversubscribe=True,
                )
                outputs.append(_jsonl(executor.run(docs)))
        assert all(output == outputs[0] for output in outputs)

    def test_empty_batch_builds_nothing(self, lexicon):
        metrics = MetricsRegistry()
        executor = BatchExecutor(lexicon, XSDFConfig(), metrics=metrics)
        assert executor.run([]) == []
        assert executor._index is None and executor._serial_xsdf is None
        assert "batch_documents" not in metrics.snapshot()["counters"]

    def test_parent_index_is_built_once_and_shared(self, lexicon, corpus):
        docs = [(d.name, d.xml) for d in _one_doc_per_dataset(corpus)[:2]]
        executor = BatchExecutor(lexicon, XSDFConfig(), workers=1)
        executor.run(docs)
        index = executor._index
        assert isinstance(index, PackedIndex)
        executor.run(docs)
        assert executor._index is index  # same object, not rebuilt


class TestAdaptiveChunking:
    def test_counts_dominate_for_small_documents(self, lexicon):
        executor = BatchExecutor(
            lexicon, XSDFConfig(), workers=2, oversubscribe=True
        )
        docs = [BatchDocument(f"d{i}", "<a/>") for i in range(80)]
        # ceil(80 / (4*2)) = 10, far below the byte cap for tiny docs.
        assert executor._auto_chunk(docs) == 10

    def test_byte_cap_shrinks_chunks_for_large_documents(self, lexicon):
        executor = BatchExecutor(
            lexicon, XSDFConfig(), workers=2, oversubscribe=True
        )
        big = "<a>" + "x" * (2 * executor_module.TARGET_CHUNK_BYTES) + "</a>"
        docs = [BatchDocument(f"d{i}", big) for i in range(80)]
        assert executor._auto_chunk(docs) == 1


class TestPoolFailureDegrade:
    def test_map_failure_degrades_to_serial(
        self, lexicon, corpus, monkeypatch
    ):
        """A pool that breaks mid-batch and cannot be respawned must not
        sink the run: what is left runs serially, byte-identically."""
        import concurrent.futures

        from .test_resilience import _kill_worker_scoring

        docs = [(d.name, d.xml) for d in _one_doc_per_dataset(corpus)[:6]]
        serial = [
            r.to_json_line()
            for r in BatchExecutor(lexicon, XSDFConfig()).run(docs)
        ]
        spawn = concurrent.futures.ProcessPoolExecutor
        spawns = []

        def spawn_once(*args, **kwargs):
            spawns.append(1)
            if len(spawns) > 1:
                raise OSError("no process spawning here")
            return spawn(*args, **kwargs)

        monkeypatch.setattr(
            concurrent.futures, "ProcessPoolExecutor", spawn_once
        )
        # Inherited through fork: the worker scoring docs[2] dies.
        monkeypatch.setattr(
            executor_module, "_disambiguate_one",
            _kill_worker_scoring(docs[2][0]),
        )
        metrics = MetricsRegistry()
        with BatchExecutor(
            lexicon, XSDFConfig(), workers=2, metrics=metrics,
            oversubscribe=True, chunk_size=1,
        ) as executor:
            records = executor.run(docs)
        assert [r.name for r in records] == [name for name, _ in docs]
        # The killer document, re-run serially in the parent, is fine.
        assert all(r.ok for r in records)
        assert [r.to_json_line() for r in records] == serial
        assert [e["kind"] for e in metrics.events("pool_fault")] == [
            "broken", "create",
        ]

    def test_pool_creation_failure_degrades_to_serial(
        self, lexicon, figure1_xml, monkeypatch
    ):
        """A platform that refuses to create a pool runs the batch
        serially at once: one ``pool_fault`` event, no retry loop."""
        import concurrent.futures

        def _no_pool(*args, **kwargs):
            raise OSError("no process spawning here")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _no_pool)
        _assert_runs_serially(lexicon, figure1_xml)

    def test_platform_without_fork_degrades_to_serial(
        self, lexicon, figure1_xml, monkeypatch
    ):
        """Workers must fork (they inherit the parent's index), so a
        platform without the ``fork`` start method takes the same
        serial path."""
        import multiprocessing

        get_context = multiprocessing.get_context

        def _no_fork(method=None):
            if method == "fork":
                raise ValueError("cannot find context for 'fork'")
            return get_context(method)

        monkeypatch.setattr(multiprocessing, "get_context", _no_fork)
        _assert_runs_serially(lexicon, figure1_xml)


def _assert_runs_serially(lexicon, figure1_xml):
    """A ``workers=2`` batch on a platform that refuses the pool: every
    record byte-identical to serial, one ``create`` fault, no spawn."""
    docs = [("a", figure1_xml), ("b", figure1_xml), ("c", figure1_xml)]
    metrics = MetricsRegistry()
    executor = BatchExecutor(
        lexicon, XSDFConfig(), workers=2, metrics=metrics,
        oversubscribe=True,
    )
    records = executor.run(docs)
    assert all(r.ok for r in records)
    serial = BatchExecutor(lexicon, XSDFConfig(), workers=1)
    assert [r.to_json_line() for r in records] == \
        [r.to_json_line() for r in serial.run(docs)]
    (fault,) = metrics.events("pool_fault")
    assert fault["kind"] == "create"
    assert executor.runtime_stats()["generation"] == 1
    assert metrics.counter("pool_spawns") == 0


class TestFaultIsolation:
    def test_bad_document_does_not_sink_batch(self, lexicon, figure1_xml):
        executor = BatchExecutor(lexicon, XSDFConfig(), workers=1)
        records = executor.run([
            ("good-1", figure1_xml),
            ("broken", "<unclosed><tag>"),
            ("good-2", figure1_xml),
        ])
        assert [r.ok for r in records] == [True, False, True]
        assert records[1].result is None
        assert records[1].error
        # The two good copies are identical documents -> identical output.
        assert records[0].result == records[2].result

    def test_deep_nesting_fails_at_stage_parse(self, lexicon, figure1_xml):
        deep = "<a>" * 5000 + "x" + "</a>" * 5000
        executor = BatchExecutor(lexicon, XSDFConfig(), workers=1)
        deep_record, good = executor.run([("deep", deep), ("good", figure1_xml)])
        assert not deep_record.ok and good.ok
        assert deep_record.outcome.stage == "parse"
        assert deep_record.outcome.error_type == "XMLSyntaxError"

    @pytest.mark.parametrize("use_index", [True, False],
                             ids=["doc-cache-on", "doc-cache-off"])
    def test_lone_surrogate_fails_at_stage_parse(
        self, lexicon, figure1_xml, use_index
    ):
        # The document cache exists only with the index; its key must
        # digest any str, so the surrogate reaches parse either way.
        executor = BatchExecutor(
            lexicon, XSDFConfig(), workers=1, use_index=use_index
        )
        assert (executor._doc_cache is not None) is use_index
        bad, good = executor.run([("s", "<films>\ud800</films>"),
                                  ("good", figure1_xml)])
        assert not bad.ok and good.ok
        assert bad.outcome.stage == "parse"
        assert bad.outcome.error_type == "XMLSyntaxError"

    def test_interrupted_batch_still_records_its_timer(
        self, lexicon, figure1_xml
    ):
        """Ctrl-C mid-batch: the ``batch`` timer and the finished
        documents are in the registry, so the summary rates them."""
        def interrupt_second(record):
            if record.name == "b":
                raise KeyboardInterrupt

        metrics = MetricsRegistry()
        executor = BatchExecutor(
            lexicon, XSDFConfig(), metrics=metrics,
            record_hook=interrupt_second,
        )
        with pytest.raises(KeyboardInterrupt):
            executor.run([(name, figure1_xml) for name in "abc"])
        report = metrics.snapshot()
        assert report["stages"]["batch"]["count"] == 1
        assert report["counters"]["batch_documents"] == 2
        assert "batch_failures" not in report["counters"]

    def test_invalid_parameters_rejected(self, lexicon):
        with pytest.raises(ValueError):
            BatchExecutor(lexicon, workers=0)
        with pytest.raises(ValueError):
            BatchExecutor(lexicon, chunk_size=0)
        with pytest.raises(ValueError):
            BatchExecutor(lexicon, cache_size=0)


class TestCachingBehavior:
    def test_repeated_documents_hit_the_result_cache(
        self, lexicon, figure1_xml
    ):
        metrics = MetricsRegistry()
        executor = BatchExecutor(
            lexicon, XSDFConfig(), workers=1, metrics=metrics
        )
        docs = [BatchDocument(f"doc-{i}", figure1_xml) for i in range(5)]
        records = executor.run(docs)
        assert all(r.ok for r in records)
        assert len({r.to_json_line() for r in records}) == len(docs)  # names differ
        assert all(r.result["assignments"] for r in records)
        # Identical text -> identical result payload, names aside.
        assert all(r.result == records[0].result for r in records)
        report = metrics.snapshot()
        # One full pipeline run, four result-cache hits.
        assert report["counters"]["documents"] == 1
        assert report["caches"]["documents"]["hits"] == 4

    def test_repeated_failure_is_reclassified_not_replayed(
        self, lexicon, figure1_xml
    ):
        broken = "<movie><title>star</movie>"
        metrics = MetricsRegistry()
        executor = BatchExecutor(
            lexicon, XSDFConfig(), workers=1, metrics=metrics
        )
        records = executor.run([
            ("bad-1", broken), ("good-1", figure1_xml),
            ("bad-2", broken), ("good-2", figure1_xml),
        ])
        bad_1, good_1, bad_2, good_2 = records
        for bad in (bad_1, bad_2):
            assert not bad.ok
            assert bad.outcome.stage == "parse"
            assert bad.outcome.error_type == "XMLSyntaxError"
        assert bad_1.error == bad_2.error
        assert good_1.ok and good_2.ok
        assert good_1.result == good_2.result
        # The repeated good document is still served from the cache.
        assert metrics.snapshot()["caches"]["documents"]["hits"] == 1

    def test_serial_memo_traffic_is_counted_once(self, lexicon, corpus):
        from repro.runtime import batch_summary

        # Structure-only documents of one schema repeat their spheres.
        dataset = next(iter(corpus.datasets()))
        docs = [(d.name, d.xml) for d in corpus.by_dataset(dataset)[:6]]
        metrics = MetricsRegistry()
        BatchExecutor(
            lexicon, XSDFConfig(include_values=False), metrics=metrics,
        ).run(docs)
        report = metrics.snapshot()
        # The registered LRU is the one count of the memo's lookups.
        assert not [c for c in report["counters"] if c.startswith("memo_")]
        memo = report["caches"]["sphere_memo"]
        assert memo["hits"] > 0 and memo["misses"] > 0
        lookups = memo["hits"] + memo["misses"]
        assert f", memo {memo['hits']}/{lookups} hits" in batch_summary(
            report, len(docs), 0
        )

    def test_each_xsdf_creates_its_own_sense_cache(self, lexicon):
        """The sense LRU is keyed by one instance's interned ids and the
        pair LRU holds scores under its weights, so no caller can hand
        either to an XSDF; ``cache_size`` bounds both, 0 keeps neither
        (the pair memo is then the similarity's own dict), and the
        executor passes its bound through (``None``: unbounded)."""
        for removed in ("similarity_cache", "sense_cache_size",
                        "sense_cache"):
            with pytest.raises(TypeError):
                XSDF(lexicon, **{removed: None})
        plain = XSDF(lexicon)
        assert plain.sense_cache is None and plain.similarity_cache is None
        assert isinstance(plain._similarity._cache, dict)
        first, second = (XSDF(lexicon, cache_size=8) for _ in "ab")
        assert first.sense_cache is not second.sense_cache
        assert first.similarity_cache is not second.similarity_cache
        assert first._similarity._cache is first.similarity_cache
        assert first.sense_cache.maxsize == 8
        assert first.similarity_cache.maxsize == 8
        for cache_size in (None, 7):
            xsdf = BatchExecutor(
                lexicon, XSDFConfig(), cache_size=cache_size
            )._serial()
            assert xsdf.sense_cache.maxsize == cache_size
            assert xsdf.similarity_cache.maxsize == cache_size
        walk = BatchExecutor(lexicon, XSDFConfig(), use_index=False)._serial()
        assert walk.sense_cache is None and walk.similarity_cache is None

    def test_executor_metrics_report(self, lexicon, figure1_xml):
        metrics = MetricsRegistry()
        executor = BatchExecutor(
            lexicon, XSDFConfig(), workers=1, metrics=metrics
        )
        executor.run([("a", figure1_xml), ("b", figure1_xml)])
        report = metrics.snapshot()
        assert report["counters"]["batches"] == 1
        assert report["counters"]["batch_documents"] == 2
        assert report["counters"]["batch_failures"] == 0
        assert "similarity_pairs" in report["caches"]
        assert "sense_scores" in report["caches"]
        assert report["stages"]["batch"]["count"] == 1
