"""Runtime throughput: the index/cache fast path and the batch executor.

Workloads over the generated collection:

* **repeated documents** — the same documents disambiguated many times,
  the traffic shape of a schema-matching loop.  Baseline is the seed
  behavior (a fresh ``XSDF`` per document, nothing shared); the runtime
  serves repeats from its caches and must be at least 2x faster.
* **unique documents** — three disjoint document sets with the same
  dataset mix through a serial executor and a ``workers=2`` persistent
  pool: the first set is the *cold* batch (pool spawn inside the timed
  region), the other two are *steady-state*
  probes on the warm pool.  Output must stay byte-identical to serial,
  the warm pool must be strictly faster than the cold batch, and the
  speedup gate is ≥1.8x (≥1.4x smoke) on multi-core hosts or the
  ≥0.98x serial floor where the anti-oversubscription clamp routes
  ``workers=2`` serially (1-CPU hosts).
* **prune + memo** — the repeated-structure corpus (the ``shakespeare``
  dataset in structure-only mode, where thousands of nodes across
  documents present the identical disambiguation situation) with exact
  sense-pruning and the cross-document sphere memo on vs both off.
  Output must stay byte-identical; the default pipeline must be at
  least 1.5x faster (1.3x under smoke).
* **mmap store** — the on-disk ``RXPD`` shard path: cold attach via
  ``PackedIndex.from_mmap`` at 100k concepts is recorded (attach is
  O(section count)) and its depths checked against the network walk; a
  second process attaching the same shard must grow its *private*
  memory by only a small fraction of the shard size (the mapped pages
  are shared through the OS page cache with every other attacher); and
  batch output over mmap- and heap-backed indexes must stay
  byte-identical.

Results land in ``BENCH_runtime.json`` at the repo root.  Set
``REPRO_BENCH_SMOKE=1`` to shrink the workloads for CI.  The 100k
store fixture is cached under ``benchmarks/_cache/`` (gitignored) and
regenerated automatically when its recorded parameters or network
fingerprint drift from the current code.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from conftest import print_table

from repro.core import XSDF, XSDFConfig
from repro.runtime import BatchExecutor, MetricsRegistry, auto_workers

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"
N_DOCS = 4 if SMOKE else 10          # distinct documents per workload
REPEATS = 3 if SMOKE else 8          # copies of each in the repeated load
_GATE_REPS_MIN = 3                   # parallel gate: sample floor ...
_GATE_REPS_MAX = 10                  # ... and noise-retry ceiling
RESULTS_PATH = Path(__file__).resolve().parent.parent / "BENCH_runtime.json"

_RESULTS: dict = {}


@pytest.fixture(scope="session", autouse=True)
def _write_results():
    """Collect per-test numbers and write BENCH_runtime.json once."""
    yield
    if _RESULTS:
        payload = {"cpu_count": os.cpu_count(), "smoke": SMOKE, **_RESULTS}
        RESULTS_PATH.write_text(
            json.dumps(payload, indent=2) + "\n", encoding="utf-8"
        )


def _distinct_documents(corpus, n: int):
    """One document per dataset, cycling until ``n`` are collected."""
    docs = []
    per_dataset = [corpus.by_dataset(name) for name in corpus.datasets()]
    i = 0
    while len(docs) < n:
        bucket = per_dataset[i % len(per_dataset)]
        doc = bucket[(i // len(per_dataset)) % len(bucket)]
        docs.append((f"{doc.name}#{len(docs)}", doc.xml))
        i += 1
    return docs


def test_repeated_documents_cached_speedup(benchmark, network, corpus):
    """Index + caches vs fresh-XSDF-per-document on repeated traffic."""
    config = XSDFConfig()
    base_docs = _distinct_documents(corpus, N_DOCS)
    workload = [
        (f"{name}@{r}", xml)
        for r in range(REPEATS)
        for name, xml in base_docs
    ]

    def run():
        start = time.perf_counter()
        baseline = [
            XSDF(network, config).disambiguate_document(xml).to_dict()
            for _, xml in workload
        ]
        baseline_s = time.perf_counter() - start

        metrics = MetricsRegistry()
        executor = BatchExecutor(
            network, config, workers=1, metrics=metrics
        )
        start = time.perf_counter()
        records = executor.run(workload)
        runtime_s = time.perf_counter() - start
        return baseline, records, baseline_s, runtime_s, metrics

    baseline, records, baseline_s, runtime_s, metrics = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    assert [r.result for r in records] == baseline  # identical senses
    speedup = baseline_s / runtime_s
    caches = metrics.snapshot()["caches"]
    rows = [
        ["seed (fresh XSDF/doc)", f"{len(workload) / baseline_s:.2f}", "-"],
        ["runtime (index+caches)", f"{len(workload) / runtime_s:.2f}",
         f"x{speedup:.1f}"],
    ]
    print_table(
        f"Runtime: {len(workload)} docs ({N_DOCS} distinct x {REPEATS})",
        ["pipeline", "docs/s", "speedup"],
        rows,
    )
    _RESULTS["repeated_documents"] = {
        "n_documents": len(workload),
        "n_distinct": N_DOCS,
        "baseline_docs_per_s": round(len(workload) / baseline_s, 3),
        "runtime_docs_per_s": round(len(workload) / runtime_s, 3),
        "speedup": round(speedup, 2),
        "cache_hit_rates": {
            name: stats["hit_rate"] for name, stats in caches.items()
        },
    }
    assert speedup >= 2.0, f"cached runtime only x{speedup:.2f}"


def _disjoint_doc_sets(corpus, n: int, k: int):
    """``k`` disjoint document lists with the same dataset mix.

    Slot ``i`` of every set draws from the same dataset bucket, so the
    sets are timing-comparable; the documents themselves never repeat
    across sets, so the executor's doc-result cache cannot serve one
    set from another and quietly turn a throughput measurement into a
    cache measurement.
    """
    per_dataset = [corpus.by_dataset(name) for name in corpus.datasets()]
    sets: list[list[tuple[str, str]]] = [[] for _ in range(k)]
    for i in range(n):
        bucket = per_dataset[i % len(per_dataset)]
        base = (i // len(per_dataset)) * k
        for j, docs in enumerate(sets):
            doc = bucket[(base + j) % len(bucket)]
            docs.append((f"{doc.name}#{j}.{i}", doc.xml))
    return sets


def test_parallel_batch_throughput(benchmark, network, corpus):
    """Serial vs persistent-pool executor: spin-up and steady state.

    Three disjoint document sets with the same dataset mix: the first
    is the *warm-up/cold* batch, the other two are *steady* probes.
    The gated serial-vs-``workers=2`` comparison interleaves the two
    executors batch-by-batch with fresh executors per repetition
    (shared prebuilt index, so only document work is timed) and takes
    the minimum steady-batch time on each side — on this corpus a
    single 4-doc batch jitters by 30%+ under scheduler noise, and a
    min-of-many estimator is what makes a 0.98x floor between two
    same-code serial runs enforceable.  Sampling is adaptive: at least
    ``_GATE_REPS_MIN`` repetitions, continuing up to ``_GATE_REPS_MAX``
    while the gate is still below its floor (a real regression keeps
    failing; a noise burst gets outvoted by more samples).

    The real pool's spin-up cost is measured in a separate
    ``oversubscribe=True`` pass (cold batch pays pool spawn inside its
    timed region; the probes run on the warm pool) so the recorded
    pool figures stay honest even on 1-CPU hosts
    where the default executor's anti-oversubscription clamp routes
    ``workers=2`` serially.
    """
    config = XSDFConfig()
    cold_docs, probe_a, probe_b = _disjoint_doc_sets(corpus, N_DOCS, 3)

    def timed_batches(executor):
        timings = []
        outputs = []
        for batch in (cold_docs, probe_a, probe_b):
            start = time.perf_counter()
            records = executor.run(batch)
            timings.append(time.perf_counter() - start)
            outputs.append([r.to_json_line() for r in records])
        return timings, outputs

    gate_floor = (1.4 if SMOKE else 1.8) if auto_workers() >= 2 else 0.98

    def run():
        prototype = BatchExecutor(network, config, workers=1)
        prototype._ensure_index()  # one build, shared by every executor

        def fresh(workers, **kwargs):
            executor = BatchExecutor(network, config, workers=workers,
                                     **kwargs)
            executor._index = prototype._index
            return executor

        effective = fresh(2).effective_workers
        outputs = []
        serial_steady, serial_total = [], []
        parallel_steady, parallel_total = [], []
        for rep in range(_GATE_REPS_MAX):
            serial = fresh(1)
            parallel = fresh(2)
            st, pt = [], []
            so, po = [], []
            # Interleave batch-by-batch so a host load burst hits both
            # executors instead of silently skewing one side, and
            # alternate which side runs first per rep — the second
            # runner of a pair is measurably (~2-3%) slower on this
            # interpreter, which would otherwise bias the gate.
            for batch in (cold_docs, probe_a, probe_b):
                legs = [(serial, st, so), (parallel, pt, po)]
                if rep % 2:
                    legs.reverse()
                for executor, timings, lines in legs:
                    start = time.perf_counter()
                    records = executor.run(batch)
                    timings.append(time.perf_counter() - start)
                    lines.append([r.to_json_line() for r in records])
            parallel.close()
            outputs.append((so, po))
            serial_steady.extend(st[1:])
            serial_total.append(sum(st))
            parallel_steady.extend(pt[1:])
            parallel_total.append(sum(pt))
            if (rep + 1 >= _GATE_REPS_MIN
                    and min(serial_steady) / min(parallel_steady)
                    >= gate_floor):
                break

        # The dedicated pool pass: on a clamped (1-CPU) host this is
        # the only place the real pool runs; on multi-core hosts
        # oversubscribe is a no-op and it simply measures spin-up.
        pool = fresh(2, oversubscribe=True)
        pool_t, pool_out = timed_batches(pool)
        pool_stats = pool.runtime_stats()
        pool.close()
        return (serial_steady, serial_total, parallel_steady,
                parallel_total, outputs, pool_t, pool_out, pool_stats,
                effective)

    (serial_steady, serial_total, parallel_steady, parallel_total,
     outputs, pool_t, pool_out, pool_stats, effective) = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    clamped = effective < 2
    baseline = outputs[0][0]
    for serial_out, parallel_out in outputs:
        assert serial_out == baseline
        assert parallel_out == baseline  # byte-identical merge
    assert pool_out == baseline          # the real pool too
    # The pool genuinely persisted: batches 2 and 3 reused it warm.
    assert pool_stats["pool_reuse_count"] >= 2
    assert pool_stats["worker_respawns"] == 0

    pool_cold_s, pool_steady_s = pool_t[0], min(pool_t[1], pool_t[2])
    n_total = 3 * N_DOCS
    reps = len(serial_total)
    speedup = min(serial_steady) / min(parallel_steady)
    total_speedup = min(serial_total) / min(parallel_total)
    spinup_dps = N_DOCS / pool_cold_s
    steady_dps = N_DOCS / pool_steady_s
    rows = [
        ["serial (workers=1)", f"{N_DOCS / min(serial_steady):.2f}", "-"],
        [f"workers=2 ({'clamped' if clamped else 'pool'})",
         f"{N_DOCS / min(parallel_steady):.2f}", f"x{speedup:.1f}"],
        ["pool spin-up (cold batch)", f"{spinup_dps:.2f}", "-"],
        ["pool steady (warm batch)", f"{steady_dps:.2f}",
         f"x{pool_cold_s / pool_steady_s:.1f} vs cold"],
    ]
    print_table(
        f"Runtime: parallel batch, 3x{N_DOCS} disjoint docs, "
        f"best of {reps} reps",
        ["executor", "steady docs/s", "speedup"],
        rows,
    )
    _RESULTS["parallel_batch"] = {
        "n_documents": n_total,
        "gate_reps": reps,
        "workers_requested": 2,
        "workers_effective": effective,
        "workers_clamped": clamped,
        "serial_docs_per_s": round(N_DOCS / min(serial_steady), 3),
        "parallel_docs_per_s": round(N_DOCS / min(parallel_steady), 3),
        "speedup": round(speedup, 2),
        "total_speedup": round(total_speedup, 2),
        "pool_oversubscribed_probe": clamped,
        "spinup_docs_per_s": round(spinup_dps, 3),
        "steady_docs_per_s": round(steady_dps, 3),
        "pool_reuse_count": pool_stats["pool_reuse_count"],
    }
    # Steady state (warm pool, best of two probes) must strictly beat
    # the cold batch that paid for pool spawn.
    assert pool_steady_s < pool_cold_s, (
        f"warm pool ({steady_dps:.2f} docs/s) no faster than "
        f"spin-up ({spinup_dps:.2f} docs/s)"
    )
    # Multi-core hosts must show a genuine pool win; on a 1-CPU host
    # the anti-oversubscription clamp routes workers=2 through the
    # serial path, so parallel must track serial to within measurement
    # noise — the documented 0.98x floor.
    assert speedup >= gate_floor, (
        f"workers=2 only x{speedup:.2f} (floor {gate_floor})"
    )


def test_prune_memo_speedup(benchmark, network, corpus):
    """Exact pruning + sphere memo vs exhaustive on repeated structure.

    The workload is the ``shakespeare`` dataset in structure-only mode
    (``include_values=False``): every act/scene/line skeleton repeats
    across the collection, so most nodes present a disambiguation
    situation the memo has already solved in an earlier document.  Both
    executors run ``workers=1`` with the index built outside the timed
    region; the cold side disables both optimisations
    (``prune=False, memo=False``), the fast side is the default
    configuration.  Every chosen sense and reported score must stay
    bit-identical; pruning is allowed to omit provably-losing
    candidates from the per-node ``scores`` tables (that is its whole
    point), so those are checked as exact subsets.
    """
    docs = [
        (doc.name, doc.xml)
        for doc in corpus.by_dataset("shakespeare")[:N_DOCS]
    ]
    cold_config = XSDFConfig(include_values=False, prune=False, memo=False)
    fast_config = XSDFConfig(include_values=False)

    rounds = 2 if SMOKE else 3  # best-of-N: the docs are small and fast

    def run():
        timings = {}
        outputs = {}
        metrics = MetricsRegistry()
        prototype = BatchExecutor(network, cold_config, workers=1)
        prototype._ensure_index()  # build once, outside every timed region
        for label, config, registry in (
            ("cold", cold_config, None),
            ("prune+memo", fast_config, metrics),
        ):
            best = None
            for round_index in range(rounds):
                # A fresh executor per round: the memo starts cold every
                # time, so the fast side never carries state across
                # rounds — best-of-N only smooths scheduler noise.  The
                # registry joins the last round only, so its counters
                # describe exactly one pass.
                executor = BatchExecutor(
                    network, config, workers=1,
                    metrics=registry if round_index == rounds - 1 else None,
                )
                executor._index = prototype._index
                start = time.perf_counter()
                records = executor.run(docs)
                elapsed = time.perf_counter() - start
                best = elapsed if best is None or elapsed < best else best
            timings[label] = best
            outputs[label] = [r.result for r in records]
        return timings, outputs, metrics

    timings, outputs, metrics = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    for cold_doc, fast_doc in zip(outputs["cold"], outputs["prune+memo"]):
        cold_assignments = cold_doc["assignments"]
        fast_assignments = fast_doc["assignments"]
        assert len(cold_assignments) == len(fast_assignments)
        for cold_a, fast_a in zip(cold_assignments, fast_assignments):
            for field in ("chosen", "score", "concept_score",
                          "context_score", "ambiguity"):
                assert cold_a[field] == fast_a[field]  # bit-identical
            for candidate, score in fast_a["scores"].items():
                assert cold_a["scores"][candidate] == score
    speedup = timings["cold"] / timings["prune+memo"]
    report = metrics.snapshot()
    memo_stats = report["caches"].get("sphere_memo", {})
    pruned = report["counters"].get("candidates_pruned", 0)
    rows = [
        ["cold (exhaustive)", f"{len(docs) / timings['cold']:.2f}", "-"],
        ["prune+memo (default)",
         f"{len(docs) / timings['prune+memo']:.2f}", f"x{speedup:.1f}"],
    ]
    print_table(
        f"Runtime: prune+memo over {len(docs)} repeated-structure docs",
        ["pipeline", "docs/s", "speedup"],
        rows,
    )
    _RESULTS["prune_memo"] = {
        "n_documents": len(docs),
        "cold_docs_per_s": round(len(docs) / timings["cold"], 3),
        "prune_memo_docs_per_s": round(
            len(docs) / timings["prune+memo"], 3
        ),
        "speedup": round(speedup, 2),
        "memo_hit_rate": memo_stats.get("hit_rate"),
        "candidates_pruned": int(pruned),
    }
    floor = 1.3 if SMOKE else 1.5  # smoke workloads see fewer repeats
    assert speedup >= floor, f"prune+memo only x{speedup:.2f}"


# -- mmap store ---------------------------------------------------------------

# 100k concepts is the scale the shard format exists for; the smoke
# fixture keeps CI runs (which cache it across builds) under a minute.
STORE_CONCEPTS = 8_000 if SMOKE else 100_000
STORE_SEED = 20260808
STORE_GLOSS_STYLE = "local"  # O(1)/concept glosses: 3.4x faster generation
_CACHE_DIR = Path(__file__).resolve().parent / "_cache"


def _store_fixture() -> dict:
    """Build (or reuse) the big-network store fixture under ``_cache/``.

    Produces three files keyed by concept count — the generated network
    JSON, its ``RXPD`` shard, and a meta record of the generation
    parameters plus the network fingerprint.
    The cache is trusted only when the meta parameters match this
    module's constants **and** the shard header carries the recorded
    fingerprint prefix; any drift (new generator defaults, a changed
    fingerprint algorithm, a new shard version) regenerates everything,
    so a stale cache can never silently satisfy the gates.
    """
    from repro.runtime.pack import PackedIndex
    from repro.runtime.store import read_shard_header, write_shard
    from repro.semnet.generator import GeneratorConfig, generate_network
    from repro.semnet.io import load_network, save_network

    stem = f"store-{STORE_CONCEPTS // 1000}k"
    net_path = _CACHE_DIR / f"{stem}.network.json"
    rxpd_path = _CACHE_DIR / f"{stem}.rxpd"
    meta_path = _CACHE_DIR / f"{stem}.meta.json"
    params = {
        "n_concepts": STORE_CONCEPTS,
        "seed": STORE_SEED,
        "gloss_style": STORE_GLOSS_STYLE,
    }

    def cache_valid() -> bool:
        if not all(p.exists() for p in (net_path, rxpd_path, meta_path)):
            return False
        try:
            meta = json.loads(meta_path.read_text(encoding="utf-8"))
            header = read_shard_header(rxpd_path)
        except (ValueError, OSError):
            return False
        return (
            meta.get("params") == params
            and header["fingerprint"] is not None
            and meta.get("fingerprint", "").startswith(header["fingerprint"])
        )

    if not cache_valid():
        _CACHE_DIR.mkdir(exist_ok=True)
        network = generate_network(GeneratorConfig(**params))
        save_network(network, net_path)
        # Reload so the fixture fingerprint is the one every consumer of
        # the JSON file sees (save -> load coerces int frequencies).
        network = load_network(net_path)
        fingerprint = network.fingerprint()
        write_shard(PackedIndex(network), rxpd_path, fingerprint=fingerprint)
        meta_path.write_text(
            json.dumps({"params": params, "fingerprint": fingerprint})
            + "\n",
            encoding="utf-8",
        )
    else:
        meta = json.loads(meta_path.read_text(encoding="utf-8"))
        fingerprint = meta["fingerprint"]
    return {
        "network_json": net_path,
        "shard": rxpd_path,
        "fingerprint": fingerprint,
    }


_CHILD_RSS_SCRIPT = """\
import sys
sys.path.insert(0, sys.argv[1])
if len(sys.argv) > 2:
    from repro.runtime.pack import PackedIndex
    index = PackedIndex.from_mmap(sys.argv[2])
    assert len(index) > 0
else:
    from repro.runtime.pack import PackedIndex  # same import cost
rss = private = 0
with open("/proc/self/smaps_rollup", encoding="ascii") as fh:
    for line in fh:
        field, _, rest = line.partition(":")
        if field == "Rss":
            rss = int(rest.split()[0])
        elif field in ("Private_Clean", "Private_Dirty"):
            private += int(rest.split()[0])
print(rss, private)
"""


def _child_memory_kb(shard: "Path | None") -> tuple[int, int]:
    """(RSS, private) kB of a child attaching ``shard`` (or import-only).

    ``private`` is ``Private_Clean + Private_Dirty`` from
    ``/proc/self/smaps_rollup`` — pages charged to this child alone.
    Shard pages the child maps while another process holds the same
    mapping are *shared* page-cache pages and excluded, which is the
    point: they cost the system nothing extra per attacher.
    """
    src = str(Path(__file__).resolve().parent.parent / "src")
    argv = [sys.executable, "-c", _CHILD_RSS_SCRIPT, src]
    if shard is not None:
        argv.append(str(shard))
    out = subprocess.run(
        argv, capture_output=True, text=True, check=True
    ).stdout
    rss, private = out.split()
    return int(rss), int(private)


def test_mmap_cold_attach(benchmark):
    """``from_mmap`` attach on the 100k fixture, checked against the walk.

    Attach is O(section count) — the tables become memoryview casts
    over the mapping and the string tables stay undecoded.  Attach
    times are recorded, not gated.  Honesty caveats recorded alongside:
    the shard is freshly written/read here, so even the "cold" attach
    finds its pages in the OS page cache (a true cold-cache attach
    defers the page-in cost to first use), and ``first_query_s``
    reports the lazy id/string-table materialization the first real
    query pays after attach.  Sampled depths must equal the network
    walk's.

    The page-sharing check runs the attach in a child process while
    this process holds its own attachment to the same shard: every
    shard page the child maps is then mapped by two processes, so it
    lands in the child's *shared* smaps buckets and the child's
    **private** memory (``Private_Clean + Private_Dirty`` from
    ``smaps_rollup``, against an import-only baseline child) may grow
    by only a small fraction of the shard size.  Raw VmRSS is recorded
    too but not gated — on kernels with large-folio page cache, one
    fault maps a whole resident 2 MB folio, inflating RSS with pages
    that are nonetheless shared and evictable.  The fraction gate only
    applies above an 8 MB shard; below that, interpreter allocation
    noise (~1 MB between otherwise identical children) dominates.
    """
    from repro.runtime.pack import PackedIndex
    from repro.semnet.io import load_network

    fixture = _store_fixture()
    shard = fixture["shard"]
    shard_bytes = os.path.getsize(shard)
    network = load_network(fixture["network_json"])
    probe_ids = [concept.id for concept in network][::997]

    def run():
        attach_s = []
        first_query_s = None
        for i in range(5):
            start = time.perf_counter()
            attached = PackedIndex.from_mmap(
                shard, expect_fingerprint=fixture["fingerprint"]
            )
            attach_s.append(time.perf_counter() - start)
            if i == 0:
                start = time.perf_counter()
                attached.depth(probe_ids[0])
                first_query_s = time.perf_counter() - start
                for cid in probe_ids:
                    assert attached.depth(cid) == network.depth(cid), cid
            assert len(attached) == len(network)
        return attach_s, first_query_s, len(network)

    attach_s, first_query_s, n = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    cold_attach_s, warm_attach_s = attach_s[0], min(attach_s[1:])

    # Hold an attachment of our own while the children run so their
    # shard pages are multiply-mapped — shared, not private, in smaps.
    holder = PackedIndex.from_mmap(shard)
    baseline = [_child_memory_kb(None) for _ in range(3)]
    attached = [_child_memory_kb(shard) for _ in range(3)]
    assert len(holder) == n
    rss_delta = max(
        0, min(r for r, _ in attached) - min(r for r, _ in baseline)
    ) * 1024
    private_delta = max(
        0, min(p for _, p in attached) - min(p for _, p in baseline)
    ) * 1024
    rss_gated = shard_bytes >= 8 * 1024 * 1024

    rows = [
        ["RXPD cold attach", f"{cold_attach_s * 1e3:.2f}"],
        ["RXPD warm attach", f"{warm_attach_s * 1e3:.2f}"],
        ["first query (lazy tables)", f"{first_query_s * 1e3:.2f}"],
    ]
    print_table(
        f"Store: {n} concepts, {shard_bytes / 1e6:.1f} MB shard",
        ["path", "ms"],
        rows,
    )
    _RESULTS["mmap_store"] = {
        "n_concepts": n,
        "shard_bytes": shard_bytes,
        "cold_attach_s": round(cold_attach_s, 6),
        "warm_attach_s": round(warm_attach_s, 6),
        "first_query_s": round(first_query_s, 6),
        "attach_pages_precached": True,  # fixture freshly written/read
        "child_rss_delta_bytes": rss_delta,  # includes shared file pages
        "child_private_delta_bytes": private_delta,
        "child_private_fraction_of_shard": round(
            private_delta / shard_bytes, 4
        ),
        "child_private_gated": rss_gated,
    }
    if rss_gated:
        assert private_delta < 0.35 * shard_bytes, (
            f"second-process attach grew private memory by "
            f"{private_delta} B ({private_delta / shard_bytes:.0%} of "
            f"the {shard_bytes} B shard)"
        )


def test_mmap_vs_heap_identity(benchmark, network, corpus, tmp_path):
    """Batch output over mmap- and heap-backed indexes is identical.

    The same documents through ``BatchExecutor`` with (a) a heap-built
    ``PackedIndex`` and (b) the same index written to a shard and
    re-attached via ``from_mmap`` must produce byte-identical JSONL.
    Timings are recorded for honesty; only identity is gated.
    """
    from repro.runtime.pack import PackedIndex
    from repro.runtime.store import write_shard

    config = XSDFConfig()
    docs = _distinct_documents(corpus, N_DOCS)
    packed = PackedIndex(network)
    shard = tmp_path / "lexicon.rxpd"
    write_shard(packed, shard, fingerprint=network.fingerprint())

    def run():
        timings = {}
        outputs = {}
        for label, index in (
            ("heap", packed),
            ("mmap", PackedIndex.from_mmap(shard)),
        ):
            executor = BatchExecutor(network, config, workers=1, index=index)
            start = time.perf_counter()
            records = executor.run(docs)
            timings[label] = time.perf_counter() - start
            outputs[label] = [r.to_json_line() for r in records]
            assert executor.index.backing == label
            executor.close()
        return timings, outputs

    timings, outputs = benchmark.pedantic(run, rounds=1, iterations=1)
    assert outputs["heap"] == outputs["mmap"]
    rows = [
        [label, f"{len(docs) / timings[label]:.2f}"]
        for label in ("heap", "mmap")
    ]
    print_table(
        f"Store: heap/mmap identity over {len(docs)} docs",
        ["index backing", "docs/s"],
        rows,
    )
    _RESULTS.setdefault("mmap_store", {})["identity"] = {
        "n_documents": len(docs),
        "identical": True,
        "heap_docs_per_s": round(len(docs) / timings["heap"], 3),
        "mmap_docs_per_s": round(len(docs) / timings["mmap"], 3),
    }
