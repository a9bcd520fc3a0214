"""Persistent worker-pool runtime: spawn once, serve many batches.

:class:`PersistentPool` is a long-lived
:class:`concurrent.futures.ProcessPoolExecutor` created once per
:class:`~repro.runtime.executor.BatchExecutor` and reused across
batches.  Workers are always forked, so initializer arguments (the
network and the parent's packed index) reach them without pickling, as
pages shared with the parent.  Workers keep their session state (a
warm :class:`~repro.runtime.memo.SphereMemo`, the document cache)
between batches, so steady-state batches pay only document payloads
across the process boundary.

A worker that dies (SIGKILL, the OOM killer, a crash in native code)
breaks the executor: every pending future fails with
``BrokenProcessPool`` as soon as the death is seen, so a lost task is
reported, never waited out.  :meth:`restart` tears the broken pool
down and the next :meth:`ensure` respawns it one *generation* up — the
executor's stats merge uses the generation to keep per-worker counters
monotone.

Platforms without working process pools, or without ``fork``, make
:meth:`ensure` return ``None``; the executor then runs the batch
serially, and output stays byte-identical either way.
"""

from __future__ import annotations

import gc
import os
import threading
from typing import Any, Callable

from .metrics import MetricsRegistry


def auto_workers() -> int:
    """The worker count ``--workers auto`` resolves to.

    Prefers ``os.process_cpu_count()`` (Python 3.13+: CPUs usable by
    *this process*), then ``os.sched_getaffinity(0)`` (the affinity
    mask on platforms that pin processes — a container limited to 2 of
    64 cores gets 2, not 64), then ``os.cpu_count()``.  Never less
    than 1.
    """
    process_cpus = getattr(os, "process_cpu_count", None)
    if process_cpus is not None:
        return max(1, process_cpus() or 1)
    affinity = getattr(os, "sched_getaffinity", None)
    if affinity is not None:
        try:
            return max(1, len(affinity(0)))
        except OSError:  # lint: disable=silent-degrade  # platform stubs the syscall; fall through to cpu_count
            pass
    return max(1, os.cpu_count() or 1)


def parse_workers(value: "int | str") -> int:
    """Parse a ``--workers`` value: an integer or the literal ``auto``.

    Returns the integer as-is (range validation stays with the
    consumer — :class:`~repro.runtime.executor.BatchExecutor` rejects
    ``< 1`` with its own clean error), and raises ``ValueError`` for
    anything that is neither an integer nor ``auto``.
    """
    if isinstance(value, str):
        text = value.strip().lower()
        if text == "auto":
            return auto_workers()
        try:
            return int(text)
        except ValueError:
            raise ValueError(
                f"workers must be an integer or 'auto', got {value!r}"
            ) from None
    return int(value)


def shutdown_pool(pool: Any, terminate: bool = False) -> None:
    """Shut a process pool down and reap its workers.

    ``terminate`` kills the workers first, so tasks they are running
    (or were handed) are abandoned instead of waited for.
    """
    if terminate:
        # ProcessPoolExecutor has no public way (before Python 3.14) to
        # stop a busy worker; its process table is the only handle.
        for process in list((pool._processes or {}).values()):
            process.terminate()
    pool.shutdown(wait=True, cancel_futures=True)


def _start_worker(initializer: Callable[..., None], *initargs: Any) -> None:
    """Worker initializer: tie this worker's life to its parent's.

    A ``ProcessPoolExecutor`` worker waits on its call queue, and its
    siblings hold that queue's write end too, so it never reads EOF
    when the parent is SIGKILLed.  A daemon thread waits on the
    parent's sentinel instead and ends the worker with it; otherwise a
    killed batch would leave its idle workers (each holding its copy of
    the network) running.  Then ``initializer(*initargs)`` runs.
    """
    import multiprocessing

    parent = multiprocessing.parent_process()
    if parent is not None:
        threading.Thread(
            target=_exit_with_parent, args=(parent,), daemon=True
        ).start()
    initializer(*initargs)


def _exit_with_parent(parent: Any) -> None:
    """Block until ``parent`` is gone, then end this process."""
    parent.join()
    os._exit(1)


class PersistentPool:
    """A long-lived ``ProcessPoolExecutor`` reused across batches.

    The inner pool is spawned lazily by :meth:`ensure` and survives
    between batches; :meth:`restart` tears a broken pool down so the
    next :meth:`ensure` respawns it one *generation* up.  Initializer
    arguments are extended with the generation number so workers can
    tag their counter snapshots (the executor keys its merge
    watermarks on ``(generation, pid)``).  Workers exit when the parent
    process dies, however it dies.

    Observability: ``generation`` counts spawns, ``reuse_count``
    counts batches served on an already-warm pool, ``respawns`` counts
    tear-downs of a broken (or abandoned) pool, all mirrored into the
    metrics registry (``pool_spawns`` / ``pool_reuses`` /
    ``worker_respawns``).
    """

    def __init__(
        self,
        processes: int,
        initializer: Callable[..., None],
        initargs: tuple = (),
        metrics: MetricsRegistry | None = None,
    ):
        if processes < 1:
            raise ValueError("processes must be >= 1")
        self.processes = processes
        self._initializer = initializer
        self._initargs = tuple(initargs)
        self.metrics = metrics
        self._pool: Any = None
        self.generation = 0
        self.reuse_count = 0
        self.respawns = 0

    @property
    def alive(self) -> bool:
        """True while an inner pool is spawned and trusted."""
        return self._pool is not None

    def note_batch(self) -> None:
        """Record one batch arriving; a warm pool counts as a reuse."""
        if self._pool is not None:
            self.reuse_count += 1
            if self.metrics is not None:
                self.metrics.count("pool_reuses")

    def ensure(self) -> Any:
        """The live inner pool, spawning one if needed.

        Returns ``None`` (with a ``pool_fault`` event) when the
        platform refuses to create a pool or its workers, or has no
        ``fork`` start method.

        Collector contract: the workers fork (the start method is
        pinned, whatever the platform default) with the parent's heap
        frozen (``gc.freeze()`` around the spawn, ``gc.unfreeze()`` in
        the parent right after), so a worker's collections never
        traverse, and so never copy-on-write, the network and index it
        inherited.  ``ProcessPoolExecutor`` forks its workers on the
        first submit, not in its constructor, so that first submit (a
        no-op task) happens here, under the freeze.  When
        ``gc.get_freeze_count()`` is already non-zero the caller's
        freeze stands and is not undone.
        """
        if self._pool is not None:
            return self._pool
        self.generation += 1
        freeze = not gc.get_freeze_count()
        if freeze:
            gc.freeze()
        pool = None
        try:
            import multiprocessing
            from concurrent.futures import ProcessPoolExecutor

            pool = ProcessPoolExecutor(
                max_workers=self.processes,
                mp_context=multiprocessing.get_context("fork"),
                initializer=_start_worker,
                initargs=(
                    self._initializer, *self._initargs, self.generation,
                ),
            )
            pool.submit(int)
        except (ImportError, NotImplementedError, OSError, ValueError) as exc:
            if pool is not None:
                shutdown_pool(pool, terminate=True)
            if self.metrics is not None:
                self.metrics.event("pool_fault", kind="create", error=str(exc))
            return None
        finally:
            if freeze:
                gc.unfreeze()
        self._pool = pool
        if self.metrics is not None:
            self.metrics.count("pool_spawns")
        return pool

    def restart(self) -> None:
        """Kill the inner pool's workers; ensure() respawns the pool.

        Called when a worker died (the pool is broken) and when a batch
        is abandoned mid-flight, so no worker keeps running its task.
        Worker session state (warm memo, doc cache) dies with the
        workers — correctness never depended on it — and the respawned
        generation forks from the parent again, index included.
        """
        if self._pool is None:
            return
        shutdown_pool(self._pool, terminate=True)
        self._pool = None
        self.respawns += 1
        if self.metrics is not None:
            self.metrics.count("worker_respawns")

    def close(self, terminate: bool = False) -> None:
        """Shut the inner pool down for good (drain or terminate)."""
        if self._pool is None:
            return
        shutdown_pool(self._pool, terminate=terminate)
        self._pool = None

    def stats(self) -> dict[str, int]:
        """Spawn/reuse counters for bench honesty and health reports."""
        return {
            "workers": self.processes,
            "generation": self.generation,
            "pool_reuse_count": self.reuse_count,
            "worker_respawns": self.respawns,
            "alive": int(self.alive),
        }
