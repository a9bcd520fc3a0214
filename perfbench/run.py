"""The repository benchmark: one command, four workloads, checked outputs.

Usage (from the checkout root)::

    python3 perfbench/run.py --workload table3-values --seed 1 \\
        --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` runs the workload's fixed traced pass instead and prints
the per-layer metrics and the cost ledger.  The last stdout line is
always one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
Any failed output check exits 1 before that line is printed.  See
``perfbench/README.md`` for the workloads and every metric.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PROGRAM = ROOT / "perfbench" / "program.py"
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

#: A run that has not finished by then is a failed run.
WATCHDOG_S = 170
#: Identical timed passes per run, each in a fresh program process.  A
#: document's time (a chunk's, with workers) is its fastest pass: the
#: host's noise only ever slows work down.
PASSES = 3
#: Set-up-only program processes per run, spread between the passes.
EXTRA_SETUPS = {"table3-values": 4, "table3-structure": 4, "table3-serve": 2,
                "synth100k-shard": 0}
#: Throughput on the defining host (closed loop for serve); sizes the
#: fixed work of each pass to a third of ``--seconds`` there.
NOMINAL_DOCS_PER_S = {"table3-values": 45, "table3-structure": 220,
                      "synth100k-shard": 25, "table3-serve": 45}
#: Documents per ``BatchExecutor.run`` call with workers, the unit whose
#: fastest pass is taken.
PARALLEL_CHUNK = 10
#: ``repro batch --cache-size`` on synth100k-shard: small enough that a
#: short pass overflows the pair and sense LRUs, as a long job does at
#: the default 65536.
SYNTH_CACHE_SIZE = 8192

# -- serve workload constants, frozen from the capacity measured when the
# benchmark was defined (see README): a fixed geometric ladder, with lo and
# hi at about a third and two thirds of that capacity.
LADDER_BASE_RPS = 10.0
LADDER_STEP = 1.08            # rungs no more than a tenth apart
LO_RUNG, HI_RUNG = 5, 14      # 14.7 and 29.4 req/s (capacity ~44 docs/s)
TAIL_LIMIT_MS = 250.0         # the latency limit max_rate_rps must meet
MAX_PROBES = 4                # ladder probes per run at most
SERVE_ZIPF_S = 0.6            # the most popular of 120 texts: 7% of repeats
SERVE_REPEAT_SHARE = 0.4      # share of requests repeating an earlier text
CLOSED_SHARE = 0.9            # of --seconds, the closed loops of all passes
SEGMENT = 12                  # closed-loop requests per timed segment


class CheckFailed(Exception):
    """An output check failed: the run records no metrics."""


def _on_alarm(signum, frame):
    raise TimeoutError(f"run exceeded {WATCHDOG_S} s")


# -- statistics -----------------------------------------------------------------


def latency_summary(seconds: list[float]) -> dict:
    """Median and the highest percentile with >= 10 samples beyond it (ms).

    With 20 samples or fewer that percentile would sit below the median,
    so the tail is then the upper middle sample, with fewer beyond it.
    """
    values = sorted(v * 1000.0 for v in seconds)
    n = len(values)
    if n == 0:
        return {"n": 0, "p50": 0.0, "tail": 0.0, "tail_pct": 0.0}
    rank = max(n // 2, n - 11)
    return {
        "n": n,
        "p50": statistics.median(values),
        "tail": values[rank],
        "tail_pct": 100.0 * (rank + 1) / n,
    }


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def fastest(per_pass: list[list[float]]) -> list[float]:
    """Each unit's fastest time over identical passes."""
    return [min(times) for times in zip(*per_pass)]


def setup_figure(samples: list[float]) -> float:
    """The fastest set-up: like a slow pass, a slow set-up is host noise."""
    return min(samples)


def process_order(extra: int) -> list[bool]:
    """``True`` for a timed pass, ``False`` for a set-up-only process.

    The set-ups sit between the passes, so they sample other stretches
    of the run than one burst would.
    """
    order = []
    for i in range(PASSES):
        order.append(True)
        order += [False] * (extra * (i + 1) // PASSES - extra * i // PASSES)
    return order


# -- program processes ----------------------------------------------------------


class Scratch:
    """Per-run files under ``perfbench/_out``, removed when the run ends."""

    def __init__(self):
        base = ROOT / "perfbench" / "_out"
        base.mkdir(parents=True, exist_ok=True)
        self.dir = Path(tempfile.mkdtemp(dir=base))
        self.procs: list[subprocess.Popen] = []

    def path(self, name: str) -> Path:
        return self.dir / name

    def spec(self, tag: str, spec: dict) -> Path:
        spec = dict(spec, result=str(self.path(f"{tag}.result.json")),
                    records=str(self.path(f"{tag}.records.jsonl")))
        path = self.path(f"{tag}.spec.json")
        path.write_text(json.dumps(spec), encoding="utf-8")
        return path

    def spawn(self, spec_path: Path, **kwargs) -> subprocess.Popen:
        proc = subprocess.Popen(
            [sys.executable, str(PROGRAM), str(spec_path)], cwd=ROOT,
            text=True, **kwargs,
        )
        self.procs.append(proc)
        return proc

    def close(self) -> None:
        for proc in self.procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
        shutil.rmtree(self.dir, ignore_errors=True)


def run_batch(scratch: Scratch, tag: str, spec: dict) -> tuple[float, dict, list[str]]:
    """One batch program process: (setup seconds, result, JSONL record lines)."""
    spec = {"mode": "batch", "trace": False, "oracle": None, **spec}
    spec_path = scratch.spec(tag, spec)
    start = time.perf_counter()
    proc = scratch.spawn(spec_path, stdout=subprocess.PIPE)
    line = proc.stdout.readline()
    setup_s = time.perf_counter() - start
    proc.stdout.read()
    code = proc.wait()
    if line.strip() != "READY" or code != 0:
        raise CheckFailed(f"batch program {tag} exited {code} ({line.strip()!r})")
    result = json.loads(scratch.path(f"{tag}.result.json").read_text())
    lines = scratch.path(f"{tag}.records.jsonl").read_text().splitlines()
    return setup_s, result, lines


class Server:
    """A ``repro serve`` program process, from spawn to SIGTERM drain."""

    def __init__(self, scratch: Scratch, tag: str, trace: bool = False):
        self.scratch = scratch
        self.tag = tag
        spec_path = scratch.spec(tag, {"mode": "serve", "trace": trace})
        start = time.perf_counter()
        self.proc = scratch.spawn(spec_path, stderr=subprocess.PIPE)
        line = self.proc.stderr.readline()
        self.setup_s = time.perf_counter() - start
        if "listening on" not in line:
            raise CheckFailed(f"server {tag} did not start: {line!r}")
        host, port = line.strip().rsplit(" ", 1)[1].rsplit(":", 1)
        self.address = (host, int(port))
        # Keep draining stderr so a chatty server can never block on it.
        self._drain = threading.Thread(target=self.proc.stderr.read, daemon=True)
        self._drain.start()

    def stop(self) -> dict:
        """SIGTERM, require exit 0, and return the program's result."""
        self.proc.send_signal(signal.SIGTERM)
        code = self.proc.wait(timeout=60)
        self._drain.join(timeout=10)
        if code != 0:
            raise CheckFailed(f"server {self.tag} drained with exit {code}")
        return json.loads(self.scratch.path(f"{self.tag}.result.json").read_text())


# -- output checks --------------------------------------------------------------

#: Assignment fields the network-walk oracle must reproduce exactly.
ORACLE_FIELDS = ("node_index", "chosen", "score", "concept_score", "context_score")


def check_records(lines: list[str], docs: list[tuple[str, str]]) -> None:
    records = [json.loads(line) for line in lines]
    if len(records) != len(docs):
        raise CheckFailed(f"{len(records)} records for {len(docs)} documents")
    if [r["name"] for r in records] != [name for name, _ in docs]:
        raise CheckFailed("records are not in input order")
    bad = [r["name"] for r in records if not r["ok"]]
    if bad:
        raise CheckFailed(f"{len(bad)} documents failed, first {bad[0]}")


def check_oracle(lines: list[str], oracle: dict) -> int:
    """Compare sampled records with the network-walk oracle; returns count."""
    by_name = {}
    for line in lines:
        record = json.loads(line)
        if record["name"] in oracle:
            by_name[record["name"]] = record["result"]
    if set(by_name) != set(oracle):
        raise CheckFailed("an oracle sample document was not processed")

    def project(result: dict) -> list:
        return [[row[f] for f in ORACLE_FIELDS] for row in result["assignments"]]

    for name, expected in oracle.items():
        if project(by_name[name]) != project(expected):
            raise CheckFailed(f"{name} differs from the network-walk oracle")
    return len(oracle)


# -- property shares ------------------------------------------------------------


def properties(snapshot: dict, workers: int = 1) -> dict:
    """Cache/memo/prune shares from a metrics-registry snapshot.

    Serial runs register the LRUs themselves; parallel runs have the
    per-worker counters merged into the parent's registry instead (the
    parent's own LRUs are registered too, but stay unused).
    """
    counters = snapshot.get("counters", {})
    caches = snapshot.get("caches", {})
    if workers > 1 and not all(f"{prefix}_hits" in counters
                               for prefix in ("pairs", "sense")):
        # program.py adds them to the worker snapshot before the pool
        # starts; a start method that re-imports the module loses that.
        raise CheckFailed("worker pair/sense cache counters did not reach "
                          "the parent")

    def lru(cache_name: str, counter_prefix: str) -> dict:
        stats = {k: counters.get(f"{counter_prefix}_{k}", 0)
                 for k in ("hits", "misses", "evictions")}
        if not (stats["hits"] or stats["misses"]):
            stats = caches.get(cache_name, stats)
        lookups = stats["hits"] + stats["misses"]
        return {"lookups": int(lookups), "hit_ratio": ratio(stats["hits"], lookups),
                "evictions": int(stats["evictions"])}

    evaluated = counters.get("candidates_evaluated", 0)
    pruned = counters.get("candidates_pruned", 0)
    return {
        "docs": lru("documents", "docs"),
        "memo": lru("sphere_memo", "memo"),
        "pairs": lru("similarity_pairs", "pairs"),
        "sense": lru("sense_scores", "sense"),
        "prune": {"evaluated": int(evaluated),
                  "pruned_ratio": ratio(pruned, evaluated + pruned)},
    }


def format_properties(props: dict) -> str:
    return (
        f"doc-cache hit share {props['docs']['hit_ratio']:.3f}; "
        f"sphere memo hit ratio {props['memo']['hit_ratio']:.3f}, "
        f"evictions {props['memo']['evictions']}; "
        f"pruned-candidate ratio {props['prune']['pruned_ratio']:.3f}; "
        f"pair-cache evictions {props['pairs']['evictions']}; "
        f"sense-cache evictions {props['sense']['evictions']}"
    )


# -- the batch workloads --------------------------------------------------------


def batch_workload(args, scratch: Scratch, report: dict) -> dict:
    from perfbench import inputs

    workload = args.workload
    workers = 1 if workload != "synth100k-shard" else 2
    # Fixed work per pass: the whole corpus seeds the nominal rate (the
    # defining host's) fills in a third of --seconds.  Counts repeat
    # exactly at a seed, and every pass holds exactly the Table 3 mix.
    per_seed = (inputs.TABLE3_DOCS_PER_SEED if workers == 1
                else inputs.SYNTH_DOCS_PER_SEED)
    n_seeds = max(1, round(args.seconds / PASSES * NOMINAL_DOCS_PER_S[workload]
                           / per_seed))
    if workers == 1:
        docs = inputs.table3_documents(args.seed, n_seeds)
        base = {"network": "lexicon", "workers": 1, "chunk": per_seed,
                "structure_only": workload == "table3-structure"}
    else:
        fixture = inputs.synth_fixture(log=lambda m: print(m, file=sys.stderr))
        vocab = json.loads(fixture.vocab.read_text(encoding="utf-8"))
        # Interleaved, so every chunk holds about the same mix of shapes.
        docs = inputs.interleaved(inputs.vocab_documents(args.seed, n_seeds, vocab),
                                  random.Random(args.seed))
        base = {"network": str(fixture.network_json), "shard": str(fixture.shard),
                "workers": 2, "chunk": PARALLEL_CHUNK, "structure_only": False,
                "cache_size": SYNTH_CACHE_SIZE}
    sample = inputs.oracle_sample(docs)
    if workers > 1:
        sample = sample[::3]  # walk scoring at 100k concepts is slow
    docs_path = scratch.path("docs.json")
    docs_path.write_text(json.dumps(docs), encoding="utf-8")
    empty_path = scratch.path("empty.json")
    empty_path.write_text("[]", encoding="utf-8")
    report["inputs"] = {"documents": len(docs), "corpus_seeds": n_seeds,
                        "distinct_texts": len({x for _, x in docs})}

    if args.trace:
        return traced_batch(args, scratch, report, docs, base, sample)

    setups, passes = [], []
    for i, timed in enumerate(process_order(EXTRA_SETUPS[workload])):
        # The first process also runs the oracle sample, after its timing.
        setup_s, result, lines = run_batch(scratch, f"process{i}", {
            **base, "docs": str(docs_path if timed else empty_path),
            "oracle": sample if i == 0 else None,
        })
        setups.append(setup_s)
        if timed:
            check_records(lines, docs)
            passes.append((result, lines))
    results = [result for result, _ in passes]
    if any(lines != passes[0][1] for _, lines in passes):
        raise CheckFailed("identical passes wrote different records")
    checked = check_oracle(passes[0][1], results[0]["oracle"])

    if workers == 1:
        # One document at a time: its time is the unit of throughput too.
        doc_s = fastest([r["doc_s"] for r in results])
        busy_s = sum(doc_s)
    else:
        doc_s = fastest([r["worker_doc_s"] for r in results])
        busy_s = sum(fastest([r["chunk_s"] for r in results]))
    per_doc = latency_summary(doc_s)
    report.update({
        "attempted": len(docs) * PASSES,
        "failed": 0,
        "checks": {"records_ok": len(docs) * PASSES, "passes_identical": PASSES,
                   "oracle_documents": checked},
        "properties": properties(results[0]["final"], workers),
        "runtime": results[0]["runtime"],
        "setup_samples": setups,
        "pass_docs_per_s": [len(docs) / r["wall_s"] for r in results],
    })
    return {
        "setup_s": (setup_figure(setups), "s"),
        "docs_per_s": (len(docs) / busy_s, "docs/s"),
        "latency_p50_ms": (per_doc["p50"], "ms"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in results), "MiB"),
    }, {"setups": len(setups), "latency": per_doc, "failed_share": 0.0}


def traced_batch(args, scratch, report, docs, base, sample):
    """Untraced then traced over the same fixed documents; the ledger."""
    count = {"table3-values": 180, "table3-structure": 600,
             "synth100k-shard": 60}[args.workload]
    fixed = docs[:count]
    path = scratch.path("fixed.json")
    path.write_text(json.dumps(fixed), encoding="utf-8")
    spec = {**base, "docs": str(path)}
    _, plain, plain_lines = run_batch(scratch, "untraced", {**spec, "oracle": sample})
    _, traced, traced_lines = run_batch(scratch, "traced", {**spec, "trace": True})
    for lines in (plain_lines, traced_lines):
        check_records(lines, fixed)
    if plain_lines != traced_lines:
        raise CheckFailed("traced records differ from untraced records")
    check_oracle(plain_lines, plain["oracle"])
    report.update({"attempted": len(traced_lines), "failed": 0,
                   "properties": properties(traced["final"], base["workers"])})
    return per_layer(traced["trace"], traced["final"], traced["runtime"], report,
                     overhead=(traced["end_s"], plain["end_s"], "program process"))


# -- the serve workload ---------------------------------------------------------


def rung_rate(rung: int) -> float:
    return LADDER_BASE_RPS * LADDER_STEP ** rung


def serve_phase_summary(samples) -> dict:
    """Counts, latency (all / first-seen / repeated texts), lateness, backlog."""
    lat = latency_summary([s.latency for s in samples])
    seen, first_seen, repeated = set(), [], []
    for sample in samples:
        (repeated if sample.reply.name in seen else first_seen).append(sample.latency)
        seen.add(sample.reply.name)
    late = sorted(s.late * 1000.0 for s in samples) or [0.0]
    half = len(samples) // 2
    first = statistics.mean(s.backlog for s in samples[:half]) if half else 0.0
    second = statistics.mean(s.backlog for s in samples[half:]) if samples else 0.0
    failed = sum(1 for s in samples if not s.reply.ok)
    return {
        "sent": len(samples), "succeeded": len(samples) - failed, "failed": failed,
        "latency": lat, "late_ms_p50": statistics.median(late), "late_ms_max": late[-1],
        "latency_first_seen": latency_summary(first_seen),
        "latency_repeat": latency_summary(repeated),
        "backlog_first_half": first, "backlog_second_half": second,
        "meets_limit": failed == 0 and lat["tail"] <= TAIL_LIMIT_MS
        and second <= first + 1.0,
    }


def closed_session(address, texts) -> dict:
    """One caller sends ``texts``, each request after the previous reply.

    Requests go in segments of :data:`SEGMENT`.  Returns the replies in
    send order and each segment's wall time, first send to last reply.
    With one connection a request's latency is its own service time, not
    partly another caller's document.
    """
    from perfbench import client

    replies, walls = [], []
    for at in range(0, len(texts), SEGMENT):
        segment, start = client.closed_loop(address, texts[at:at + SEGMENT])
        walls.append(max(r.done for r in segment) - start)
        replies += segment
    return {"replies": replies, "walls": walls}


def serve_workload(args, scratch: Scratch, report: dict) -> dict:
    from perfbench import client, inputs

    seconds = args.seconds
    rng = random.Random(args.seed)
    # The closed loops are fixed work: the same requests in the same order
    # against each pass's fresh server, and their fastest segments give the
    # bounded serve figures.  Their first-seen texts are whole corpus
    # seeds, so each pass's new work is exactly the Table 3 mix.  The
    # open-loop phases run once, on the last server; their percentiles are
    # reported with their sample counts but not bounded.
    closed_seeds = max(1, round(NOMINAL_DOCS_PER_S[args.workload] * CLOSED_SHARE
                                * seconds / PASSES * (1 - SERVE_REPEAT_SHARE)
                                / inputs.TABLE3_DOCS_PER_SEED))
    durations = {"lo": 0.1 * seconds, "hi": 0.1 * seconds}
    if args.trace:
        # The traced server runs lo and hi three times as long, so more
        # requests stand behind each server-side figure.
        durations = {phase: 3 * length for phase, length in durations.items()}
    probe_s = max(1.5, 0.075 * seconds)
    # Each phase has its own stream over its own corpus seeds, so its
    # texts and its repeat share do not depend on how earlier phases ran.
    expected = {"lo": rung_rate(LO_RUNG) * durations["lo"],
                "hi": rung_rate(HI_RUNG) * durations["hi"]}
    expected.update({f"probe{i}": 150 * probe_s for i in range(MAX_PROBES)})
    streams, docs = {}, []
    for index, phase in enumerate(["closed", *expected]):
        n_seeds = (closed_seeds if phase == "closed" else math.ceil(
            expected[phase] * (1 - SERVE_REPEAT_SHARE) / inputs.TABLE3_DOCS_PER_SEED) + 1)
        phase_docs = inputs.table3_documents(args.seed * 16 + index, n_seeds)
        phase_rng = random.Random(f"{args.seed}/{phase}")
        streams[phase] = inputs.RequestStream(
            inputs.interleaved(list(phase_docs), phase_rng),
            SERVE_REPEAT_SHARE, SERVE_ZIPF_S, phase_rng)
        docs += phase_docs
    closed_texts = streams["closed"].session(closed_seeds * inputs.TABLE3_DOCS_PER_SEED)
    closed_requests = len(closed_texts)
    if args.trace:
        return traced_serve(scratch, report, docs, streams, closed_texts, rng,
                            durations)

    setups, sessions, rss = [], [], []
    for i, timed in enumerate(process_order(EXTRA_SETUPS[args.workload])):
        server = Server(scratch, f"server{i}")
        setups.append(server.setup_s)
        if timed:
            sessions.append(closed_session(server.address, closed_texts))
        if len(sessions) == PASSES and timed:
            busy_s = sum(fastest([s["walls"] for s in sessions]))
            capacity = closed_requests / busy_s
            phases, open_replies = open_phases(server.address, streams, rng,
                                               durations, probe_s, capacity)
            snapshot = client.get_metrics(server.address)
        result = server.stop()
        if timed:
            rss.append(result["peak_rss_mb"])

    # The bounded latency is the cache-miss path's: a repeat's latency
    # depends on how large its cached result is, so a median over both
    # kinds would shift with which texts the Zipf head made popular.
    latency_s = fastest([[r.done - r.sent for r in s["replies"]] for s in sessions])
    first_seen, repeats, seen = [], [], set()
    for (name, _), seconds_ in zip(closed_texts, latency_s):
        (repeats if name in seen else first_seen).append(seconds_)
        seen.add(name)
    closed = latency_summary(first_seen)
    everything = latency_summary(latency_s)
    all_replies = [r for s in sessions for r in s["replies"]] + open_replies
    checked = check_served(scratch, all_replies, docs)
    sent = len(all_replies)
    report.update({
        "attempted": sent, "failed": sum(1 for r in all_replies if not r.ok),
        "checks": checked, "properties": properties(snapshot),
        # The last server's traffic: its document cache saw exactly this.
        "repeat_share": repeat_share(sessions[-1]["replies"] + open_replies),
        "phases": phases,
        "closed_loop": {"sent": closed_requests, "passes": PASSES,
                        "pass_docs_per_s": [closed_requests / sum(s["walls"])
                                            for s in sessions],
                        "latency_first_seen": closed,
                        "latency_repeat": latency_summary(repeats),
                        "first_seen_s": sum(first_seen), "repeat_s": sum(repeats)},
        "setup_samples": setups,
    })
    extra = {
        "setups": len(setups), "latency": closed,
        "req_p50_ms.closed": everything["p50"],
        "req_tail_ms.closed": everything["tail"],
        "failed_share": ratio(report["failed"], sent),
        "max_rate_rps": phases["ladder"]["max_rate_rps"],
    }
    for phase in ("lo", "hi"):
        lat = phases[phase]["latency"]
        extra[f"req_p50_ms.{phase}"] = lat["p50"]
        extra[f"req_tail_ms.{phase}"] = lat["tail"]
        extra[f"req_samples.{phase}"] = lat["n"]
    return {
        "setup_s": (setup_figure(setups), "s"),
        "docs_per_s": (capacity, "docs/s"),
        "latency_p50_ms": (closed["p50"], "ms"),
        "peak_rss_mb": (statistics.median(rss), "MiB"),
    }, extra


def open_phases(address, streams, rng, durations, probe_s, capacity):
    """The lo and hi phases, then the ladder search for ``max_rate_rps``.

    The search starts at the highest rung under 85% of the closed-loop
    capacity, goes one rung up after a pass and one down after a miss,
    and stops once a passing rung sits right under a missing one (the lo
    and hi results count too), or after :data:`MAX_PROBES` probes.
    """
    from perfbench import client, inputs

    phases, replies, results = {}, [], {}

    def phase(name, rung, duration):
        schedule = inputs.poisson_schedule(
            rung_rate(rung), duration, streams[name], rng)
        samples = client.open_loop(address, schedule)
        summary = serve_phase_summary(samples)
        phases[name] = dict(summary, rate_rps=rung_rate(rung))
        replies.extend(s.reply for s in samples)
        results[rung] = summary["meets_limit"]

    phase("lo", LO_RUNG, durations["lo"])
    phase("hi", HI_RUNG, durations["hi"])
    rung = max([0] + [r for r in range(64) if rung_rate(r) <= 0.85 * capacity])
    best, bracketed = None, False
    for i in range(MAX_PROBES):
        phase(f"probe{i}", rung, probe_s)
        best = max((r for r, ok in results.items() if ok), default=None)
        if best is not None and results.get(best + 1) is False:
            bracketed = True
            break
        rung += 1 if results[rung] else -1
    phases["ladder"] = {
        "max_rate_rps": rung_rate(best) if best is not None else 0.0,
        "bracketed": bracketed, "rungs": {str(r): ok for r, ok in sorted(results.items())},
    }
    return phases, replies


def repeat_share(replies) -> float:
    seen, repeats = set(), 0
    for reply in replies:
        repeats += reply.name in seen
        seen.add(reply.name)
    return ratio(repeats, len(replies))


def check_served(scratch, replies, docs) -> dict:
    """Every reply ok, each record line byte-identical to ``repro batch``."""
    from perfbench import inputs

    bad = [r for r in replies if not r.ok]
    if bad:
        raise CheckFailed(f"{len(bad)} requests failed, first {bad[0].name}: "
                          f"status {bad[0].status} {bad[0].error}")
    texts = dict(docs)
    served = sorted({r.name for r in replies})
    distinct = [(name, texts[name]) for name in served]
    sample = inputs.oracle_sample(distinct)
    path = scratch.path("served.json")
    path.write_text(json.dumps(distinct), encoding="utf-8")
    _, result, lines = run_batch(scratch, "reference", {
        "network": "lexicon", "workers": 2, "structure_only": False,
        "docs": str(path), "chunk": len(distinct), "oracle": sample,
    })
    check_records(lines, distinct)
    reference = {json.loads(line)["name"]: line.encode("utf-8") for line in lines}
    for reply in replies:
        if reply.record_line != reference[reply.name]:
            raise CheckFailed(f"served record for {reply.name} differs from batch")
    return {"served_lines_identical": len(replies),
            "oracle_documents": check_oracle(lines, result["oracle"])}


def traced_serve(scratch, report, docs, streams, closed_texts, rng, durations):
    """The closed loop against an untraced, then a traced server; then the
    lo and hi phases against the traced one.

    The closed loop is a fixed amount of work, so the difference of its
    two wall times is the tracing overhead.
    """
    from perfbench import client, inputs

    walls, replies, late = {}, [], []
    for tag, trace in (("untraced", False), ("traced", True)):
        server = Server(scratch, tag, trace=trace)
        session = closed_session(server.address, closed_texts)
        walls[tag] = sum(session["walls"])
        replies += session["replies"]
        if trace:
            for phase, rung in (("lo", LO_RUNG), ("hi", HI_RUNG)):
                schedule = inputs.poisson_schedule(
                    rung_rate(rung), durations[phase], streams[phase], rng)
                samples = client.open_loop(server.address, schedule)
                replies += [s.reply for s in samples]
                late += [s.late for s in samples]
            snapshot = client.get_metrics(server.address)
        result = server.stop()
    report.update({"attempted": len(replies),
                   "failed": sum(1 for r in replies if not r.ok),
                   "checks": check_served(scratch, replies, docs),
                   "properties": properties(snapshot)})
    trace = result["trace"]
    trace["late_s"] = late
    return per_layer(trace, snapshot, None, report,
                     overhead=(walls["traced"], walls["untraced"],
                               f"closed loop of {len(closed_texts)} requests"))


# -- per-layer metrics and the ledger -----------------------------------------

#: Ledger rows: layer -> the per-layer metric its self time is reported as.
LEDGER = {
    "xmltree": "xmltree.self_s", "linguistics": "linguistics.self_s",
    "ambiguity": "ambiguity.self_s", "sphere": "sphere.self_s",
    "context_vector": "context_vector.self_s", "memo": "memo.self_s",
    "concept": "concept.self_s", "context": "context.self_s",
    "context_walk": "context.walk_self_s", "pair": "pair.self_s",
    "bound": "bound.self_s", "lexicon": "lexicon.build_s",
    "index_build": "index.build_s", "network_load": "network.load_s",
    "fingerprint": "network.fingerprint_s", "store_attach": "store.attach_s",
    "executor": "executor.self_s", "xsdf": "xsdf.self_s",
    "pool_spawn": "pool.spawn_s", "server_read": "server.read_s",
    "server_score": "server.score_self_s", "server_stream": "server.stream_s",
}


def per_layer(trace: dict, snapshot: dict, runtime: dict | None, report: dict,
              overhead: tuple[float, float, str]) -> tuple[dict, dict]:
    """Per-layer metrics and the ledger from one traced program process.

    ``overhead`` is (traced wall, untraced wall, what both timed) for the
    same fixed work.
    """
    layers = trace["layers"]
    counts = trace["counts"]

    def calls(layer):
        return layers.get(layer, {}).get("calls", 0)

    def self_s(layer):
        return layers.get(layer, {}).get("self_s", 0.0)

    props = properties(snapshot)
    metrics = {name: (self_s(layer), "s") for layer, name in LEDGER.items()}
    pre = latency_summary(trace.get("pre_score_s", []))
    score = latency_summary(trace.get("score_s", []))
    late = latency_summary(trace.get("late_s", []))
    runtime = runtime or {}
    metrics.update({
        "xmltree.calls": (calls("xmltree"), "count"),
        "xmltree.bytes": (counts.get("xmltree.bytes", 0), "bytes"),
        "linguistics.calls": (calls("linguistics"), "count"),
        "ambiguity.calls": (calls("ambiguity"), "count"),
        "ambiguity.targets_per_node": (
            ratio(counts.get("ambiguity.targets", 0), counts.get("ambiguity.nodes", 0)),
            "ratio"),
        "sphere.calls": (calls("sphere"), "count"),
        "sphere.members_mean": (
            ratio(counts.get("sphere.members", 0), calls("sphere")), "count"),
        "memo.lookups": (props["memo"]["lookups"], "count"),
        "memo.hit_ratio": (props["memo"]["hit_ratio"], "ratio"),
        "memo.evictions": (props["memo"]["evictions"], "count"),
        "concept.calls": (calls("concept"), "count"),
        "prune.evaluated": (props["prune"]["evaluated"], "count"),
        "prune.pruned_ratio": (props["prune"]["pruned_ratio"], "ratio"),
        "context.calls": (calls("context"), "count"),
        "pair.calls": (calls("pair"), "count"),
        "bound.calls": (calls("bound"), "count"),
        "cache.pairs.hit_ratio": (props["pairs"]["hit_ratio"], "ratio"),
        "cache.pairs.evictions": (props["pairs"]["evictions"], "count"),
        "cache.sense.hit_ratio": (props["sense"]["hit_ratio"], "ratio"),
        "cache.sense.evictions": (props["sense"]["evictions"], "count"),
        "cache.docs.hit_ratio": (props["docs"]["hit_ratio"], "ratio"),
        "pool.reuse_count": (runtime.get("pool_reuse_count", 0), "count"),
        "pool.respawns": (runtime.get("worker_respawns", 0), "count"),
        "server.pre_score_ms.p50": (pre["p50"], "ms"),
        "server.pre_score_ms.tail": (pre["tail"], "ms"),
        "server.score_ms.p50": (score["p50"], "ms"),
        "server.score_ms.tail": (score["tail"], "ms"),
        "client.late_ms.p50": (late["p50"], "ms"),
        "client.late_ms.max": (max(trace.get("late_s") or [0.0]) * 1000.0, "ms"),
    })
    wall = trace["wall_s"]
    rows = sum(self_s(layer) for layer in layers)
    unattributed = wall - trace["covered_s"]
    concurrent = trace["concurrent_s"]
    traced_s, untraced_s, timed = overhead
    metrics.update({
        "ledger.unattributed_s": (unattributed, "s"),
        "ledger.concurrent_s": (concurrent, "s"),
        "ledger.traced_wall_s": (wall, "s"),
        "ledger.reconcile_ratio": (
            ratio(rows + unattributed - concurrent, wall), "ratio"),
        "trace.overhead_s": (traced_s - untraced_s, "s"),
    })
    ledger = sorted(((name, self_s(layer), calls(layer))
                     for layer, name in LEDGER.items()), key=lambda r: -r[1])
    report["ledger"] = {
        "rows": [[name, own, n] for name, own, n in ledger],
        "unattributed_s": unattributed, "concurrent_s": concurrent,
        "traced_wall_s": wall,
        "overhead": {"timed": timed, "traced_s": traced_s, "untraced_s": untraced_s},
        "samples": {"server.pre_score_ms": pre["n"], "server.score_ms": score["n"],
                    "client.late_ms": late["n"]},
    }
    return metrics, {}


# -- host record and output -----------------------------------------------------


def host_record() -> dict:
    try:
        affinity = sorted(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        affinity = None
    return {
        "cpu_count": os.cpu_count(),
        "affinity": affinity,
        "python": sys.version.split()[0],
        "loadavg": os.getloadavg(),
    }


def print_report(args, host, metrics, extra, report) -> None:
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    print("host " + json.dumps(host))
    lat = extra.pop("latency", None)
    notes = {}
    if lat:
        notes = {"setup_s": f"  (n={extra.pop('setups')} set-ups)",
                 "latency_p50_ms": f"  (n={lat['n']})"}
    for name, (value, unit) in metrics.items():
        print(f"  {name:<28} {value:>14.4f} {unit}{notes.get(name, '')}")
    if lat:
        print(f"  {'latency_tail_ms':<28} {lat['tail']:>14.4f} ms  "
              f"(p{lat['tail_pct']:.1f}, n={lat['n']}; not bounded)")
    for name, value in extra.items():
        print(f"  {name:<28} {value}")
    if "properties" in report:
        print("properties: " + format_properties(report["properties"]))
    ledger = report.get("ledger")
    if ledger:
        print(f"ledger (traced wall {ledger['traced_wall_s']:.3f} s):")
        for name, own, calls in ledger["rows"]:
            if calls:
                print(f"  {name:<26} {own:>10.4f} s  {calls:>10d} calls")
        print(f"  {'unattributed':<26} {ledger['unattributed_s']:>10.4f} s")
        if ledger["concurrent_s"]:
            print(f"  {'concurrent (counted twice)':<26} "
                  f"{-ledger['concurrent_s']:>10.4f} s")
        cost = ledger["overhead"]
        print(f"tracing overhead {cost['traced_s'] - cost['untraced_s']:.3f} s "
              f"({cost['timed']}: traced {cost['traced_s']:.3f} s, "
              f"untraced {cost['untraced_s']:.3f} s)")
    print("detail " + json.dumps(report, default=str))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[
        "table3-values", "table3-structure", "table3-serve", "synth100k-shard"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    if args.workload == "synth100k-shard":
        # The one-off fixture build (about a minute) happens before the
        # watchdog starts: it belongs to the checkout, not to this run.
        from perfbench import inputs

        inputs.synth_fixture(log=lambda m: print(m, file=sys.stderr))
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(WATCHDOG_S)
    host = host_record()
    report: dict = {"host": host}
    scratch = Scratch()
    try:
        if args.workload == "table3-serve":
            metrics, extra = serve_workload(args, scratch, report)
        else:
            metrics, extra = batch_workload(args, scratch, report)
    except CheckFailed as exc:
        print(f"perfbench: output check failed: {exc}", file=sys.stderr)
        return 1
    finally:
        signal.alarm(0)
        scratch.close()
    print_report(args, host, metrics, extra, report)
    print(json.dumps({
        "correct": True,
        "attempted": int(report["attempted"]),
        "failed": int(report["failed"]),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
