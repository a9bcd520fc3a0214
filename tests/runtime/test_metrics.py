"""Metrics registry tests + instrumentation hooks in XSDF."""

from __future__ import annotations

import json

from repro import XSDF, XSDFConfig
from repro.runtime import LRUCache, MetricsRegistry, batch_summary


class TestRegistry:
    def test_counters(self):
        m = MetricsRegistry()
        m.count("documents")
        m.count("documents", 2)
        assert m.counter("documents") == 3
        assert m.counter("untouched") == 0

    def test_timer_accumulates(self):
        m = MetricsRegistry()
        for _ in range(3):
            with m.timer("stage"):
                pass
        stage = m.stage("stage")
        assert stage.count == 3
        assert stage.total >= 0
        assert stage.mean == stage.total / 3

    def test_observe_external_duration(self):
        m = MetricsRegistry()
        m.observe("batch", 1.5)
        m.observe("batch", 0.5)
        assert m.stage("batch").count == 2
        assert m.stage("batch").total == 2.0

    def test_report_shape(self):
        m = MetricsRegistry()
        m.count("documents", 4)
        with m.timer("parse"):
            pass
        cache = LRUCache(maxsize=4)
        cache["k"] = 1
        cache.get("k")
        m.register_cache("pairs", cache)
        report = m.snapshot()
        assert report["counters"]["documents"] == 4
        assert report["stages"]["parse"]["count"] == 1
        assert report["caches"]["pairs"]["hits"] == 1
        assert report["throughput"]["documents"] == 4
        assert report["throughput"]["docs_per_s"] > 0

    def test_summary_rates_the_scored_documents(self):
        """Five records, two replayed from a journal: the rate is the
        three the executor scored over the ``batch`` timer."""
        m = MetricsRegistry()
        m.count("batch_documents", 3)
        m.observe("batch", 1.5)
        assert batch_summary(m.snapshot(), 5, 0).startswith(
            "5 documents, 0 failed, 2.0 docs/s"
        )

    def test_json_round_trip(self, tmp_path):
        m = MetricsRegistry()
        m.count("documents")
        parsed = json.loads(m.to_json())
        assert parsed["counters"]["documents"] == 1
        path = tmp_path / "metrics.json"
        m.write_json(str(path))
        assert json.loads(path.read_text())["counters"]["documents"] == 1


class TestXSDFInstrumentation:
    def test_default_is_uninstrumented(self, lexicon, figure1_xml):
        xsdf = XSDF(lexicon, XSDFConfig())
        assert xsdf.metrics is None
        xsdf.disambiguate_document(figure1_xml)  # no metrics side effects

    def test_stage_timers_and_counters(self, lexicon, figure1_xml):
        metrics = MetricsRegistry()
        xsdf = XSDF(lexicon, XSDFConfig(), metrics=metrics)
        result = xsdf.disambiguate_document(figure1_xml)
        assert metrics.counter("documents") == 1
        assert metrics.counter("targets") == result.n_targets
        assert metrics.counter("nodes") == result.n_nodes
        assert metrics.counter("assignments") == len(result.assignments)
        for stage in ("parse", "select", "sphere", "score", "document"):
            assert metrics.stage(stage) is not None, stage
        # Sphere/score timers fire once per target that had candidates.
        assert metrics.stage("sphere").count == len(result.assignments)

    def test_instrumented_results_identical(self, lexicon, figure1_xml):
        plain = XSDF(lexicon, XSDFConfig()).disambiguate_document(figure1_xml)
        timed = XSDF(
            lexicon, XSDFConfig(), metrics=MetricsRegistry()
        ).disambiguate_document(figure1_xml)
        assert plain.to_dict() == timed.to_dict()


class TestEvents:
    def test_event_records_structured_fields(self):
        m = MetricsRegistry()
        m.event("pool_fault", kind="broken", error="a")
        m.event("doc_failed", doc="b")
        assert m.events() == [
            {"event": "pool_fault", "kind": "broken", "error": "a"},
            {"event": "doc_failed", "doc": "b"},
        ]
        assert m.events("pool_fault") == [
            {"event": "pool_fault", "kind": "broken", "error": "a"}
        ]
        assert m.events("nothing") == []

    def test_event_buffer_is_bounded(self):
        m = MetricsRegistry()
        for i in range(MetricsRegistry.MAX_EVENTS + 5):
            m.event("tick", i=i)
        report = m.snapshot()
        assert len(report["events"]) == MetricsRegistry.MAX_EVENTS
        assert report["events_dropped"] == 5

    def test_report_includes_events(self):
        m = MetricsRegistry()
        m.event("workers_clamped", requested=3, effective=1)
        report = m.snapshot()
        assert report["events"] == [
            {"event": "workers_clamped", "requested": 3, "effective": 1}
        ]
        assert report["events_dropped"] == 0
        # And the JSON rendering carries them too.
        assert json.loads(m.to_json())["events"][0]["event"] == \
            "workers_clamped"
