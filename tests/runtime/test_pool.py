"""Persistent pool runtime: lifecycle, temp shards, crash recovery.

The contracts pinned here:

* a second batch on the same executor **reuses** the warm pool (no
  respawn, no rewrite of the index shard);
* a worker hard-killed mid-document (``os._exit``, the crash no
  ``except`` can catch) triggers respawn-and-requeue and the batch
  still completes with byte-identical survivors;
* a heap-built index reaches workers through a temporary ``RXPD``
  shard that ``close()`` deletes, that the next writer sweeps up when
  its owner was killed, and whose write failure only costs speed;
* serial and persistent-pool output are byte-identical even across
  ``PYTHONHASHSEED`` variation (subprocess-checked, since the hash
  seed is frozen at interpreter start);
* workers fork with the parent's heap frozen, and the parent's freeze
  count is back to its earlier value once the pool is up.
"""

from __future__ import annotations

import gc
import multiprocessing
import os
import subprocess
import sys

import pytest

from repro import XSDFConfig
from repro.runtime import (
    BatchExecutor,
    FaultInjector,
    FaultSpec,
    MetricsRegistry,
    PersistentPool,
    auto_workers,
    parse_workers,
)
from repro.runtime import executor as executor_module


class TestWorkerCountHelpers:
    def test_auto_workers_is_a_positive_int(self):
        count = auto_workers()
        assert isinstance(count, int)
        assert count >= 1

    def test_auto_workers_respects_affinity_mask(self, monkeypatch):
        monkeypatch.delattr(os, "process_cpu_count", raising=False)
        monkeypatch.setattr(
            os, "sched_getaffinity", lambda pid: {0, 3}, raising=False
        )
        assert auto_workers() == 2

    def test_parse_workers_accepts_auto_and_integers(self):
        assert parse_workers("auto") == auto_workers()
        assert parse_workers(" AUTO ") == auto_workers()
        assert parse_workers("3") == 3
        assert parse_workers(4) == 4
        # Range validation stays with the consumer: 0 parses fine and
        # must be rejected by BatchExecutor with its historical error.
        assert parse_workers("0") == 0

    def test_parse_workers_rejects_garbage(self):
        with pytest.raises(ValueError, match="integer or 'auto'"):
            parse_workers("banana")

    def test_executor_still_rejects_nonpositive_workers(self, lexicon):
        with pytest.raises(ValueError, match="workers"):
            BatchExecutor(lexicon, workers=parse_workers("0"))


class TestWarmPoolReuse:
    def test_second_batch_reuses_the_pool(self, lexicon, figure1_xml):
        metrics = MetricsRegistry()
        docs = [(f"doc-{i}", figure1_xml) for i in range(4)]
        with BatchExecutor(
            lexicon, XSDFConfig(), workers=2, metrics=metrics,
            oversubscribe=True,  # exercise the real pool on 1-CPU hosts
        ) as executor:
            first = [r.to_json_line() for r in executor.run(docs)]
            stats = executor.runtime_stats()
            assert stats["alive"] == 1
            assert stats["generation"] == 1
            assert stats["pool_reuse_count"] == 0
            assert stats["shard_bytes"] > 0
            second = [r.to_json_line() for r in executor.run(docs)]
            stats = executor.runtime_stats()
            # Same generation: the warm pool served the second batch;
            # nothing was respawned or republished.
            assert stats["generation"] == 1
            assert stats["pool_reuse_count"] == 1
            assert stats["worker_respawns"] == 0
            assert first == second
        assert metrics.counter("pool_spawns") == 1
        assert metrics.counter("pool_reuses") == 1

    def test_close_is_idempotent_and_executor_stays_usable(
        self, lexicon, figure1_xml
    ):
        executor = BatchExecutor(
            lexicon, XSDFConfig(), workers=2, oversubscribe=True
        )
        docs = [(f"doc-{i}", figure1_xml) for i in range(3)]
        baseline = [r.to_json_line() for r in executor.run(docs)]
        executor.close()
        executor.close()
        # The serial path (and a fresh parallel runtime) still works.
        again = [r.to_json_line() for r in executor.run(docs)]
        assert again == baseline
        executor.close()


def _temp_shard_dirs():
    """Temp shard directories currently present, by name."""
    root = executor_module._temp_shard_root()
    return {
        name for name in os.listdir(root)
        if name.startswith(executor_module._TEMP_SHARD_PREFIX)
    }


class TestShmHygiene:
    def test_close_unlinks_the_published_segment(self, lexicon, figure1_xml):
        """A heap index reaches workers as a temp shard published on
        tmpfs (``/dev/shm`` when writable); ``close()`` unlinks it."""
        executor = BatchExecutor(
            lexicon, XSDFConfig(), workers=2, oversubscribe=True
        )
        executor.run([(f"doc-{i}", figure1_xml) for i in range(3)])
        shard = executor._temp_shard
        assert shard is not None and os.path.isfile(shard)
        directory = os.path.dirname(shard)
        assert os.path.dirname(directory) == \
            executor_module._temp_shard_root()
        shard_bytes = executor.runtime_stats()["shard_bytes"]
        assert shard_bytes == os.path.getsize(shard) > 0
        executor.close()
        assert not os.path.exists(directory)


class TestTempShardLifecycle:
    def test_dead_owner_shard_is_removed_by_next_writer(
        self, lexicon, figure1_xml
    ):
        """A SIGKILLed owner's shard goes with the next parallel batch."""
        child = subprocess.Popen([sys.executable, "-c", "pass"])
        child.wait()  # a pid that no longer exists
        orphan = os.path.join(
            executor_module._temp_shard_root(),
            f"{executor_module._TEMP_SHARD_PREFIX}{child.pid}-planted",
        )
        os.makedirs(orphan)
        with open(os.path.join(orphan, "index.rxpd"), "wb") as fh:
            fh.write(b"RXPD")
        with BatchExecutor(
            lexicon, XSDFConfig(), workers=2, oversubscribe=True
        ) as executor:
            executor.run([(f"doc-{i}", figure1_xml) for i in range(2)])
            assert not os.path.exists(orphan)

    def test_shard_write_failure_falls_back_to_worker_builds(
        self, lexicon, figure1_xml, monkeypatch
    ):
        def _disk_full(*args, **kwargs):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(executor_module, "write_shard", _disk_full)
        before = _temp_shard_dirs()
        docs = [(f"doc-{i}", figure1_xml) for i in range(3)]
        metrics = MetricsRegistry()
        with BatchExecutor(
            lexicon, XSDFConfig(), workers=2, metrics=metrics,
            oversubscribe=True,
        ) as executor:
            records = executor.run(docs)
        assert all(r.ok for r in records)
        (fault,) = metrics.events("pool_fault")
        assert fault["kind"] == "shard_write"
        assert metrics.counter("degrade_packed_decode") >= 1
        assert _temp_shard_dirs() <= before
        serial = BatchExecutor(lexicon, XSDFConfig(), workers=1).run(docs)
        assert [r.to_json_line() for r in records] == [
            r.to_json_line() for r in serial
        ]


class TestWorkerCrashRecovery:
    def test_worker_exit_respawns_and_requeues(self, lexicon, figure1_xml):
        """A hard worker crash must not lose or re-blame documents."""
        injector = FaultInjector(
            seed=42, specs=[FaultSpec.exiting(match="victim", max_attempt=1)]
        )
        metrics = MetricsRegistry()
        with BatchExecutor(
            lexicon,
            XSDFConfig(),
            workers=2,
            metrics=metrics,
            injector=injector,
            doc_timeout=1.0,
            backoff_base=0.0,
            oversubscribe=True,
        ) as executor:
            docs = [(f"doc-{i}", figure1_xml) for i in range(3)]
            docs.insert(1, ("victim", figure1_xml))
            records = executor.run(docs)
            assert [r.name for r in records] == [name for name, _ in docs]
            assert all(r.ok for r in records), [r.error for r in records]
            by_name = {r.name: r for r in records}
            victim = by_name["victim"].outcome
            assert victim is not None
            assert victim.status == "retried"
            assert victim.attempts >= 2
            # Bystanders are blameless: they succeeded on attempt 1.
            for name, _ in docs:
                if name == "victim":
                    continue
                outcome = by_name[name].outcome
                assert outcome is not None and outcome.attempts == 1
            stats = executor.runtime_stats()
            assert stats["worker_respawns"] >= 1
            assert stats["generation"] >= 2
            # Survivors are byte-identical to an untouched serial run.
            serial = BatchExecutor(lexicon, XSDFConfig(), workers=1)
            assert [r.to_json_line() for r in records] == [
                r.to_json_line() for r in serial.run(docs)
            ]
        assert metrics.counter("worker_respawns") >= 1

    def test_exit_fault_demotes_to_raise_in_parent(self, lexicon, figure1_xml):
        """Serial runs survive an ``exit`` schedule (no process suicide)."""
        injector = FaultInjector(
            seed=7, specs=[FaultSpec.exiting(match="victim", max_attempt=1)]
        )
        executor = BatchExecutor(
            lexicon, XSDFConfig(), workers=1, injector=injector,
            backoff_base=0.0,
        )
        records = executor.run([("victim", figure1_xml)])
        assert records[0].ok
        assert records[0].outcome is not None
        assert records[0].outcome.status == "retried"


def _initialize_worker(generation: int) -> None:
    """A pool initializer with nothing to set up."""


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="only forked workers inherit the parent's frozen heap",
)
class TestForkWithFrozenHeap:
    def test_workers_inherit_a_frozen_heap(self):
        before = gc.get_freeze_count()
        pool = PersistentPool(1, _initialize_worker)
        try:
            inner = pool.ensure()
            assert gc.get_freeze_count() == before
            assert inner.apply(gc.get_freeze_count) > 0
        finally:
            pool.close()


_HASHSEED_SCRIPT = """
import sys
from repro import XSDFConfig
from repro.runtime import BatchExecutor
from repro.semnet import default_lexicon
from tests.conftest import FIGURE1_XML

workers = int(sys.argv[1])
with BatchExecutor(
    default_lexicon(), XSDFConfig(), workers=workers, oversubscribe=True
) as executor:
    docs = [(f"doc-{i}", FIGURE1_XML) for i in range(3)]
    for record in executor.run(docs):
        sys.stdout.write(record.to_json_line() + "\\n")
"""


@pytest.mark.slow
class TestHashSeedIndependence:
    def test_serial_equals_pool_across_hash_seeds(self):
        """{workers 1, 2} x {PYTHONHASHSEED 0, 345} -> one output.

        Hash randomization is frozen at interpreter start, so the only
        honest way to vary it is fresh subprocesses.
        """
        outputs = set()
        for workers in (1, 2):
            for seed in ("0", "345"):
                env = dict(os.environ)
                env["PYTHONHASHSEED"] = seed
                env["PYTHONPATH"] = os.pathsep.join(
                    p for p in ("src", env.get("PYTHONPATH", "")) if p
                )
                proc = subprocess.run(
                    [sys.executable, "-c", _HASHSEED_SCRIPT, str(workers)],
                    capture_output=True,
                    text=True,
                    env=env,
                    timeout=300,
                    cwd=os.path.dirname(
                        os.path.dirname(os.path.dirname(__file__))
                    ),
                )
                assert proc.returncode == 0, proc.stderr
                outputs.add(proc.stdout)
        assert len(outputs) == 1
