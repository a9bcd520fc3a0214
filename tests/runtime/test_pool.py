"""Persistent pool runtime: lifecycle, crash recovery, forked workers.

The contracts pinned here:

* a second batch on the same executor **reuses** the warm pool (no
  respawn);
* a worker SIGKILLed mid-batch (the crash no ``except`` can catch)
  breaks the pool at once — no timeout — and the batch still completes
  with every record byte-identical to serial; a document that kills
  its worker every time fails alone, with stage ``pool``; no worker
  outlives an abort, an interrupt or its SIGKILLed parent;
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
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro import XSDFConfig
from repro.runtime import (
    BatchAbortError,
    BatchExecutor,
    MetricsRegistry,
    PersistentPool,
    auto_workers,
    parse_workers,
)
from repro.runtime import executor as executor_module

from .test_resilience import _kill_worker_scoring


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
            second = [r.to_json_line() for r in executor.run(docs)]
            stats = executor.runtime_stats()
            # Same generation: the warm pool served the second batch;
            # nothing was respawned.
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


def _within(seconds, fn):
    """``fn()``'s value, or a test failure if it has not returned in
    ``seconds`` (a hung pool must fail the test, not hang the suite)."""
    box = {}

    def target():
        try:
            box["value"] = fn()
        except BaseException as exc:  # lint: disable=broad-except  # re-raised in the test thread
            box["error"] = exc

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(seconds)
    if thread.is_alive():
        pytest.fail(f"did not return within {seconds} s")
    if "error" in box:
        raise box["error"]
    return box["value"]


def _corpus_docs(corpus, n):
    return [
        (f"doc-{i:02d}", doc.xml)
        for i, doc in enumerate(list(corpus)[:n])
    ]


class TestWorkerCrashRecovery:
    def test_worker_exit_respawns_and_requeues(self, lexicon, corpus):
        """A worker SIGKILLed from outside mid-batch must not lose,
        re-blame or stall documents — and no timeout is set."""
        docs = _corpus_docs(corpus, 24)
        serial = [
            r.to_json_line()
            for r in BatchExecutor(lexicon, XSDFConfig()).run(docs)
        ]
        killed = []

        def kill_first_worker(record):
            # The first record back names a live worker: kill it while
            # the rest of the batch is still in flight.
            if not killed and record.worker_stats:
                killed.append(record.worker_stats["pid"])
                os.kill(killed[0], signal.SIGKILL)

        metrics = MetricsRegistry()
        with BatchExecutor(
            lexicon, XSDFConfig(), workers=2, metrics=metrics,
            oversubscribe=True, record_hook=kill_first_worker,
            chunk_size=2,
        ) as executor:
            records = _within(60, lambda: executor.run(docs))
            assert killed
            assert [r.name for r in records] == [name for name, _ in docs]
            assert all(r.ok for r in records), [r.error for r in records]
            assert [r.to_json_line() for r in records] == serial
            stats = executor.runtime_stats()
            assert stats["worker_respawns"] >= 1
            assert stats["generation"] >= 2
            # Only the lost documents ran twice, and the bounded
            # pipeline caps them: at most max(4, 2 x workers) chunks of
            # two were in flight.
            rerun = [r for r in records if r.outcome.attempts == 2]
            assert {r.outcome.attempts for r in records} <= {1, 2}
            assert len(rerun) <= 4 * 2
        assert metrics.counter("worker_respawns") >= 1
        (fault,) = metrics.events("pool_fault")
        assert fault["kind"] == "broken"

    def test_worker_killed_between_batches_is_replaced(
        self, lexicon, corpus
    ):
        """A warm pool whose idle worker was killed is found broken by
        the next batch, which respawns it and loses nothing."""
        docs = _corpus_docs(corpus, 8)
        with BatchExecutor(
            lexicon, XSDFConfig(), workers=2, oversubscribe=True,
        ) as executor:
            first = [r.to_json_line() for r in executor.run(docs)]
            (victim, *_) = executor._pool._pool._processes
            os.kill(victim, signal.SIGKILL)
            second = _within(60, lambda: executor.run(docs))
            stats = executor.runtime_stats()
        assert [r.to_json_line() for r in second] == first
        assert stats["pool_reuse_count"] == 1
        assert stats["worker_respawns"] == 1

    def test_worker_killing_document_fails_alone(
        self, lexicon, corpus, monkeypatch
    ):
        docs = _corpus_docs(corpus, 16)
        serial = {
            r.name: r.to_json_line()
            for r in BatchExecutor(lexicon, XSDFConfig()).run(docs)
        }
        victim = docs[5][0]
        monkeypatch.setattr(
            executor_module, "_disambiguate_one",
            _kill_worker_scoring(victim),
        )
        with BatchExecutor(
            lexicon, XSDFConfig(), workers=2, oversubscribe=True,
        ) as executor:
            records = _within(60, lambda: executor.run(docs))
            respawns = executor.runtime_stats()["worker_respawns"]
        by_name = {r.name: r for r in records}
        casualty = by_name.pop(victim)
        assert not casualty.ok
        assert casualty.outcome.stage == "pool"
        assert casualty.outcome.error_type == "BrokenProcessPool"
        assert all(r.ok for r in by_name.values())
        assert all(
            r.to_json_line() == serial[name] for name, r in by_name.items()
        )
        # One respawn for the chunk it broke, one for its own task.
        assert 1 <= respawns <= 2

    def test_no_worker_outlives_an_abort_or_an_interrupt(
        self, lexicon, corpus
    ):
        docs = _corpus_docs(corpus, 12)
        before = set(multiprocessing.active_children())
        aborting = BatchExecutor(
            lexicon, XSDFConfig(), workers=2, oversubscribe=True,
            on_error="fail", chunk_size=1,
        )
        with pytest.raises(BatchAbortError):
            aborting.run(docs[:6] + [("bad", "<unclosed>")] + docs[6:])
        assert set(multiprocessing.active_children()) <= before
        aborting.close()

        def interrupt(record):
            raise KeyboardInterrupt

        interrupted = BatchExecutor(
            lexicon, XSDFConfig(), workers=2, oversubscribe=True,
            record_hook=interrupt, chunk_size=1,
        )
        with pytest.raises(KeyboardInterrupt):
            interrupted.run(docs)
        assert set(multiprocessing.active_children()) <= before
        # The runtime stays usable: the next batch respawns its workers.
        interrupted.record_hook = None
        assert all(r.ok for r in interrupted.run(docs[:4]))
        interrupted.close()
        assert set(multiprocessing.active_children()) <= before


_ORPHAN_SCRIPT = """
import sys, time
from repro import XSDFConfig
from repro.runtime import BatchExecutor
from repro.semnet import default_lexicon
from tests.conftest import FIGURE1_XML

executor = BatchExecutor(
    default_lexicon(), XSDFConfig(), workers=2, oversubscribe=True
)
executor.run([(f"doc-{i}", FIGURE1_XML) for i in range(3)])
print(*executor._pool._pool._processes, flush=True)
time.sleep(120)
"""


def _running(pid: int) -> bool:
    """Whether ``pid`` is a live process (an unreaped zombie is not)."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


@pytest.mark.skipif(
    not os.path.isdir("/proc/self"), reason="reads process states from /proc"
)
class TestParentDeath:
    def test_workers_exit_when_the_parent_is_killed(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in ("src", env.get("PYTHONPATH", "")) if p
        )
        with subprocess.Popen(
            [sys.executable, "-c", _ORPHAN_SCRIPT],
            stdout=subprocess.PIPE, text=True, env=env,
            cwd=os.path.dirname(os.path.dirname(os.path.dirname(__file__))),
        ) as parent:
            try:
                workers = [
                    int(pid) for pid in parent.stdout.readline().split()
                ]
            finally:
                parent.kill()
        assert len(workers) == 2
        deadline = time.monotonic() + 30
        while any(map(_running, workers)) and time.monotonic() < deadline:
            time.sleep(0.05)
        orphans = [pid for pid in workers if _running(pid)]
        for pid in orphans:
            os.kill(pid, signal.SIGKILL)
        assert orphans == []


def _initialize_worker(generation: int) -> None:
    """A pool initializer with nothing to set up."""


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="only forked workers inherit the parent's frozen heap",
)
class TestForkWithFrozenHeap:
    def test_workers_inherit_a_frozen_heap(self):
        before = gc.get_freeze_count()
        pool = PersistentPool(1, _initialize_worker)
        try:
            inner = pool.ensure()
            # ensure() already forked the worker: a submit now cannot
            # spawn one outside the freeze.
            assert gc.get_freeze_count() == before
            assert inner.submit(gc.get_freeze_count).result() > 0
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
