"""Fault-isolated batch pipeline: structured outcomes, real faults.

The contract under test, end to end: a batch survives real faults
(malformed documents, a worker killed by its document) with structured
per-document outcomes, and **every document that succeeds is
byte-identical to a fault-free run** (the chaos parity gate mirrored by
the CI chaos job).  A fault while scoring is not worked around or
retried: it fails that one document, typed by stage, and the rest of
the batch is unaffected.  A damaged index is not a per-document fault:
``run()`` raises it before anything scores, with or without workers.
"""

from __future__ import annotations

import multiprocessing
import os
import signal

import pytest

from repro import XSDFConfig
from repro.runtime import (
    BatchExecutor,
    DocOutcome,
    MetricsRegistry,
    PackedIndex,
    PackedIndexCRCError,
    PackedIndexError,
    SphereMemo,
    write_shard,
)
from repro.runtime import executor as executor_module
from repro.runtime.resilience import STATUS_FAILED, STATUS_OK
from repro.similarity import CombinedSimilarity

#: A document the XML parser rejects: a permanent, per-document fault.
BROKEN_XML = "<unclosed><tag>"


def _docs(corpus, n):
    docs = []
    for dataset in corpus.datasets():
        docs.append(corpus.by_dataset(dataset)[0])
        if len(docs) == n:
            break
    return [(d.name, d.xml) for d in docs]


def _lines(records):
    return {r.name: r.to_json_line() for r in records}


class TestDocOutcome:
    def test_ok_property(self):
        assert DocOutcome(name="d").ok
        assert DocOutcome(name="d", attempts=2).ok
        assert not DocOutcome(name="d", status=STATUS_FAILED).ok

    def test_to_dict_omits_empty_fields(self):
        assert DocOutcome(name="d").to_dict() == {
            "name": "d", "status": STATUS_OK, "attempts": 1,
        }
        full = DocOutcome(
            name="d", status=STATUS_FAILED, attempts=3, stage="parse",
            error_type="XMLError", error="XMLError: boom",
        ).to_dict()
        assert full["stage"] == "parse"


class TestSerialRetries:
    def test_permanent_fault_is_not_retried(self, lexicon):
        metrics = MetricsRegistry()
        executor = BatchExecutor(
            lexicon, XSDFConfig(), workers=1, metrics=metrics,
        )
        records = executor.run([("doc", BROKEN_XML)])
        outcome = records[0].outcome
        assert not records[0].ok
        assert outcome.status == STATUS_FAILED
        assert outcome.attempts == 1  # a failure is final: no redispatch
        assert outcome.stage == "parse"
        assert metrics.report()["counters"]["outcome_failed"] == 1
        (failed_event,) = metrics.events("doc_failed")
        assert failed_event["stage"] == "parse"


def _kill_worker_scoring(name):
    """A ``_disambiguate_one`` that SIGKILLs the pool worker scoring
    ``name`` (the parent's own serial path is left alone)."""
    score = executor_module._disambiguate_one

    def score_or_die(xsdf, doc_name, xml, doc_cache):
        if doc_name == name and multiprocessing.parent_process() is not None:
            os.kill(os.getpid(), signal.SIGKILL)
        return score(xsdf, doc_name, xml, doc_cache)

    return score_or_die


class TestChaosParity:
    """The gate the CI chaos job replays: survivors are bit-identical."""

    def test_mixed_schedule_with_workers(self, lexicon, corpus, monkeypatch):
        docs = _docs(corpus, 6)
        names = [name for name, _ in docs]
        docs[3] = (names[3], BROKEN_XML)
        baseline = _lines(
            BatchExecutor(lexicon, XSDFConfig(), workers=1).run(docs)
        )
        # Inherited through fork: whichever worker scores names[1] dies.
        monkeypatch.setattr(
            executor_module, "_disambiguate_one",
            _kill_worker_scoring(names[1]),
        )
        metrics = MetricsRegistry()
        with BatchExecutor(
            lexicon, XSDFConfig(), workers=2, metrics=metrics,
            oversubscribe=True, chunk_size=1,
        ) as executor:
            records = executor.run(docs)
        assert [r.name for r in records] == names  # input order kept
        by_name = {r.name: r for r in records}
        assert by_name[names[3]].outcome.stage == "parse"
        assert by_name[names[1]].outcome.stage == "pool"
        for name, record in by_name.items():
            if record.ok:
                assert record.to_json_line() == baseline[name], name
        assert sum(r.ok for r in records) == 4
        assert metrics.report()["counters"]["outcome_failed"] == 2

    def test_damaged_index_raises_from_run_on_both_paths(
        self, lexicon, corpus, tmp_path
    ):
        docs = _docs(corpus, 4)
        shard = str(tmp_path / "lexicon.rxpd")
        write_shard(PackedIndex(lexicon), shard)
        index = PackedIndex.from_mmap(shard)
        # One body byte flipped on disk after the attach: the mapping
        # sees it, in the id/token string tables.
        with open(shard, "r+b") as fh:
            fh.seek(os.path.getsize(shard) // 2)
            byte = fh.read(1)
            fh.seek(-1, os.SEEK_CUR)
            fh.write(bytes([byte[0] ^ 0xFF]))
        with pytest.raises(PackedIndexCRCError):
            PackedIndex.from_mmap(shard, verify=True)
        metrics = MetricsRegistry()
        with BatchExecutor(
            lexicon, XSDFConfig(), workers=2, metrics=metrics,
            oversubscribe=True,  # exercise the real pool on 1-CPU hosts
            index=index,
        ) as executor:
            with pytest.raises(PackedIndexError) as parallel:
                executor.run(docs)
        # The parent decodes the tables before its first fork, so the
        # damage raises there and no worker is ever spawned.
        assert metrics.counter("pool_spawns") == 0
        serial = BatchExecutor(lexicon, XSDFConfig(), workers=1, index=index)
        with pytest.raises(PackedIndexError) as serial_error:
            serial.run(docs)
        assert type(parallel.value) is type(serial_error.value)
        assert str(parallel.value) == str(serial_error.value)


class TestScoringFaults:
    """A fault while scoring fails its document; nothing degrades."""

    @pytest.mark.parametrize(
        "owner, method, exc_type, stage",
        [
            (PackedIndex, "pair_terms", PackedIndexCRCError, "index"),
            (SphereMemo, "signature", RuntimeError, "pipeline"),
            (CombinedSimilarity, "upper_bound", RuntimeError, "pipeline"),
        ],
        ids=["packed-kernel", "sphere-memo", "prune-bound"],
    )
    def test_fault_fails_only_its_document(
        self, lexicon, corpus, monkeypatch, owner, method, exc_type, stage
    ):
        docs = _docs(corpus, 2)
        baseline = _lines(BatchExecutor(lexicon, XSDFConfig()).run(docs))
        original = getattr(owner, method)
        calls = []

        def fail_once(self, *args, **kwargs):
            calls.append(method)
            if len(calls) == 1:
                raise exc_type(f"injected {method} fault")
            return original(self, *args, **kwargs)

        monkeypatch.setattr(owner, method, fail_once)
        first, second = BatchExecutor(lexicon, XSDFConfig()).run(docs)
        assert calls, f"{method} was never called"
        assert not first.ok
        assert first.outcome.status == STATUS_FAILED
        assert first.outcome.stage == stage
        assert first.outcome.error_type == exc_type.__name__
        assert second.ok
        assert second.to_json_line() == baseline[second.name]
