"""The program process: ``repro batch``'s executor path or ``repro serve``.

Run by :mod:`perfbench.run` as ``python3 perfbench/program.py SPEC.json``.
The spec says which surface to start and with what inputs; the process
prints ``READY`` on stdout once it can take its first document (batch)
or leaves that to the server's own ``listening on`` line (serve), and
writes its measurements to ``spec["result"]`` when it ends.

With ``spec["trace"]`` set, :func:`perfbench.trace.install` wraps the
layer calls before anything is built, and the spans go to the result.
"""

from __future__ import annotations

import time

_WALL_START = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

_ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(_ROOT), str(_ROOT / "src")]

def _peak_rss_mb() -> float:
    """Peak RSS of this process image (``VmHWM``), in MiB.

    ``ru_maxrss`` would also count the spawning benchmark process: Linux
    carries the old image's high-water mark across exec.
    """
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def _merge_worker_cache_counters() -> None:
    """Let pool workers report their pair/sense LRU counters too.

    Workers already send cumulative memo/prune counters with every
    record, and the parent folds *every* key of that snapshot into its
    metrics registry.  Adding the two LRUs' counters to the snapshot
    (the pool forks after this runs, so workers inherit it) is what
    makes cache evictions visible under ``--workers 2``.
    """
    from repro.runtime import executor

    snapshot = executor._stats_snapshot

    def with_caches(xsdf):
        stats = snapshot(xsdf)
        for prefix, cache in (
            ("pairs", xsdf.similarity_cache), ("sense", xsdf.sense_cache)
        ):
            if cache is not None:
                for key in ("hits", "misses", "evictions"):
                    stats[f"{prefix}_{key}"] = getattr(cache, key)
        return stats

    executor._stats_snapshot = with_caches


def _oracle(network, config, sample) -> dict:
    """The network-walk reference: no index, no pruning, no memo."""
    from dataclasses import replace

    from repro.core.framework import XSDF

    xsdf = XSDF(network, replace(config, prune=False, memo=False))
    return {
        name: xsdf.disambiguate_document(xml).to_dict()
        for name, xml in sample
    }


def run_batch(spec: dict, tracer) -> dict:
    import repro.semnet
    import repro.semnet.io
    from repro.core.config import XSDFConfig
    from repro.runtime.executor import DEFAULT_CACHE_SIZE, BatchExecutor
    from repro.runtime.metrics import MetricsRegistry
    from repro.runtime.pack import PackedIndex

    docs = [tuple(d) for d in json.loads(Path(spec["docs"]).read_text())]
    if spec["network"] == "lexicon":
        network, index = repro.semnet.default_lexicon(), None
    else:
        network = repro.semnet.io.load_network(spec["network"])
        index = PackedIndex.from_mmap(
            spec["shard"], expect_fingerprint=network.fingerprint()
        )
    config = XSDFConfig(include_values=not spec["structure_only"])
    if spec["workers"] > 1:
        _merge_worker_cache_counters()
    stamps: list[float] = []
    metrics = MetricsRegistry()
    executor = BatchExecutor(
        network, config, workers=spec["workers"],
        cache_size=spec.get("cache_size", DEFAULT_CACHE_SIZE),
        metrics=metrics, index=index,
        record_hook=lambda record: stamps.append(time.perf_counter()),
    )
    executor.warm()
    ready = time.perf_counter()
    print("READY", flush=True)

    records, chunk_s = [], []
    chunk = spec["chunk"]
    for at in range(0, len(docs), chunk):
        start = time.perf_counter()
        records.extend(executor.run(docs[at:at + chunk]))
        chunk_s.append(time.perf_counter() - start)
    end = time.perf_counter()
    result = {
        "n_docs": len(records),
        "wall_s": end - ready,
        "chunk_s": chunk_s,
        "doc_s": [b - a for a, b in zip([ready, *stamps], stamps)],
        "worker_doc_s": [r.elapsed_s for r in records],
        "peak_rss_mb": _peak_rss_mb(),
        "final": metrics.snapshot(),
        "runtime": executor.runtime_stats(),
        "end_s": end - _WALL_START,
    }
    if tracer is not None:
        result["trace"] = tracer.dump(_WALL_START, end)
    with open(spec["records"], "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(record.to_json_line() + "\n")
    executor.close()
    if spec.get("oracle"):
        result["oracle"] = _oracle(network, config, spec["oracle"])
    return result


def run_serve(spec: dict, tracer) -> dict:
    from repro.cli import main

    code = main(["serve", "--port", "0"])
    end = time.perf_counter()
    result = {"exit_code": code, "peak_rss_mb": _peak_rss_mb(),
              "end_s": end - _WALL_START}
    if tracer is not None:
        result["trace"] = tracer.dump(_WALL_START, end)
    return result


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text())
    tracer = None
    if spec["trace"]:
        from perfbench import trace

        tracer = trace.install()
    result = (run_serve if spec["mode"] == "serve" else run_batch)(spec, tracer)
    Path(spec["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
