"""CI chaos gates: real faults, zero result divergence.

Two hard gates, each exit-code enforced (run both with no arguments,
or name one: ``executor``, ``kill-resume``):

``executor``
    Runs the test corpus through :class:`repro.runtime.BatchExecutor`
    twice — once fault-free and serial, once on a two-worker pool that
    forks with a shard-attached index, under real faults: one document
    SIGKILLs whichever worker scores it, and the gate SIGKILLs the
    first worker it hears from while the batch is in flight.  It gates
    on the hard exactness contract: every surviving document
    byte-identical to the fault-free run, exactly the worker-killing
    document failing (with stage ``pool``), and the pool respawn proven
    to have fired.  The batch then replays on the same warm executor
    (``pool_reuse_count >= 1``) and must stay byte-identical.

``kill-resume``
    The crash-recovery contract across the real process boundary: the
    gate SIGKILLs a ``repro batch --journal`` run once the journal
    holds a document frame, ends the journal with a partial frame (the
    torn tail a kill in the middle of a write leaves), then re-runs the
    batch with ``--resume``, twice.  The gate requires the kill to have
    actually landed (exit -9/137), the first resume to replay a
    non-zero number of journaled documents and to score a non-zero
    number (non-vacuous), the second to replay every document and
    score none (the first one's frames are readable past the torn
    tail), and both output files to be **byte-identical** to an
    uninterrupted reference run.

Exit code 0 on success, 1 with a divergence report otherwise.
"""

from __future__ import annotations

import multiprocessing
import os
import pathlib
import re
import signal
import subprocess
import sys
import tempfile
import time

from repro import XSDFConfig
from repro.datasets import generate_test_corpus
from repro.runtime import (
    BatchExecutor,
    JournalError,
    MetricsRegistry,
    PackedIndex,
    read_journal,
    write_shard,
)
from repro.runtime import executor as executor_module
from repro.semnet.lexicon import default_lexicon


def _kill_worker_scoring(name: str):
    """A ``_disambiguate_one`` that SIGKILLs the pool worker scoring
    ``name``; installed before the pool forks, so workers inherit it."""
    score = executor_module._disambiguate_one

    def score_or_die(xsdf, doc_name, xml, doc_cache):
        if doc_name == name and multiprocessing.parent_process() is not None:
            os.kill(os.getpid(), signal.SIGKILL)
        return score(xsdf, doc_name, xml, doc_cache)

    return score_or_die


def gate_executor() -> list[str]:
    """In-process executor under real faults: survivors byte-identical."""
    lexicon = default_lexicon()
    corpus = generate_test_corpus()
    docs = []
    for dataset in corpus.datasets():
        docs.append(corpus.by_dataset(dataset)[0])
        if len(docs) == 8:
            break
    batch = [(d.name, d.xml) for d in docs]
    names = [name for name, _ in batch]
    killer_name = names[4]

    baseline = {
        r.name: r.to_json_line()
        for r in BatchExecutor(lexicon, XSDFConfig(), workers=1).run(batch)
    }

    problems: list[str] = []
    killed: list[int] = []

    def kill_first_worker(record) -> None:
        # An outside SIGKILL (the OOM killer's shape) of a live worker
        # while the rest of the batch is still in flight.
        if not killed and record.worker_stats:
            killed.append(record.worker_stats["pid"])
            os.kill(killed[0], signal.SIGKILL)

    metrics = MetricsRegistry()
    score = executor_module._disambiguate_one
    executor_module._disambiguate_one = _kill_worker_scoring(killer_name)
    try:
        with tempfile.TemporaryDirectory(prefix="repro-chaosgate-") as tmp:
            shard = os.path.join(tmp, "lexicon.rxpd")
            write_shard(PackedIndex(lexicon), shard)
            index = PackedIndex.from_mmap(shard)
            executor = BatchExecutor(
                lexicon,
                XSDFConfig(),
                workers=2,
                chunk_size=1,
                metrics=metrics,
                index=index,
                oversubscribe=True,  # the gate must exercise the real pool
                record_hook=kill_first_worker,
            )
            with executor:
                records = executor.run(batch)
                # Round 2, same executor: the warm persistent pool runs
                # the batch again; the worker-killing document still
                # kills, every other document must still match.
                executor.record_hook = None
                warm_records = executor.run(batch)
                runtime_stats = executor.runtime_stats()
    finally:
        executor_module._disambiguate_one = score

    if not killed:
        problems.append("the gate never killed a worker")
    for label, run in (("", records), ("warm-pool ", warm_records)):
        if [r.name for r in run] != names:
            problems.append(f"{label}records came back out of input order")
        for record in run:
            if record.name == killer_name:
                if record.ok:
                    problems.append(
                        f"{record.name}: {label}worker-killing document "
                        f"did not fail"
                    )
                elif record.outcome.stage != "pool":
                    problems.append(
                        f"{record.name}: {label}casualty lacks a "
                        f"stage=pool outcome"
                    )
                continue
            if not record.ok:
                problems.append(
                    f"{record.name}: unexpected {label}failure {record.error}"
                )
            elif record.to_json_line() != baseline[record.name]:
                problems.append(f"{record.name}: DIVERGED {label}from the "
                                f"fault-free run")
    if runtime_stats.get("pool_reuse_count", 0) < 1:
        problems.append("second batch did not reuse the warm pool")

    counters = metrics.snapshot()["counters"]
    if not counters.get("worker_respawns"):
        problems.append("the pool was never respawned")

    if not problems:
        survivors = sum(1 for r in records if r.ok)
        print(
            f"executor gate passed: {survivors}/{len(batch)} survivors "
            f"bit-identical, {int(counters['worker_respawns'])} pool "
            f"respawns, 1 stage=pool casualty; warm-pool replay "
            f"(reuse={runtime_stats['pool_reuse_count']}) bit-identical too"
        )
    return problems


def _batch_env() -> dict:
    """Subprocess env with ``src`` on PYTHONPATH (CI and local runs)."""
    root = pathlib.Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")]
        + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    return env


def _journaled_documents(path: str) -> int:
    """Document frames in a journal being written (0 before its header)."""
    try:
        return len(read_journal(path).entries)
    except JournalError:
        return 0


def _resume(cmd: list[str], env: dict) -> "tuple[int, int] | str":
    """Run one ``--resume`` batch: ``(replayed, scored)`` or a problem."""
    run = subprocess.run(cmd, env=env, capture_output=True, text=True)
    if run.returncode != 0:
        return f"resume exited {run.returncode}: {run.stderr[-500:]}"
    summary = run.stdout + run.stderr
    match = re.search(r"journal replayed=(\d+) scored=(\d+)", summary)
    if match is None:
        return f"resume summary lacks journal stats: {summary!r}"
    return int(match.group(1)), int(match.group(2))


def gate_kill_resume() -> list[str]:
    """SIGKILL a journaled batch mid-run; resume must be byte-identical."""
    problems: list[str] = []
    corpus = generate_test_corpus()
    docs = [d for dataset in corpus.datasets()
            for d in corpus.by_dataset(dataset)][:24]
    if len(docs) < 8:
        return [f"corpus too small for a mid-batch kill ({len(docs)} docs)"]
    env = _batch_env()
    with tempfile.TemporaryDirectory(prefix="repro-killgate-") as tmp:
        doc_dir = os.path.join(tmp, "docs")
        os.makedirs(doc_dir)
        for i, doc in enumerate(docs):
            name = os.path.join(doc_dir, f"doc-{i:03d}.xml")
            with open(name, "w", encoding="utf-8") as handle:
                handle.write(doc.xml)
        pattern = os.path.join(doc_dir, "*.xml")
        ref_out = os.path.join(tmp, "ref.jsonl")
        out = os.path.join(tmp, "out.jsonl")
        journal = os.path.join(tmp, "batch.rxjf")
        base_cmd = [sys.executable, "-m", "repro", "batch", pattern,
                    "--workers", "2"]

        # Reference: the uninterrupted run the resumed output must match.
        ref = subprocess.run(
            base_cmd + ["--out", ref_out], env=env,
            capture_output=True, text=True,
        )
        if ref.returncode != 0:
            return [f"reference batch failed ({ref.returncode}): {ref.stderr}"]

        # Kill leg: the gate SIGKILLs the batch once the journal holds
        # a document frame — no atexit, no cleanup, exactly the crash
        # the journal exists for.
        kill = subprocess.Popen(
            base_cmd + ["--out", out, "--journal", journal],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            text=True,
        )
        deadline = time.monotonic() + 120.0
        while kill.poll() is None and time.monotonic() < deadline:
            if _journaled_documents(journal):
                kill.send_signal(signal.SIGKILL)
                break
            time.sleep(0.005)
        else:
            if kill.poll() is None:
                kill.kill()
        _, stderr = kill.communicate()
        if kill.returncode not in (-signal.SIGKILL, 128 + signal.SIGKILL):
            problems.append(
                f"kill leg exited {kill.returncode}, expected SIGKILL "
                f"(-9/137): {stderr[-500:]}"
            )
        if not os.path.exists(journal) or os.path.getsize(journal) == 0:
            problems.append("killed run left no journal to resume from")
        if problems:
            return problems

        # Torn tail: the first 6 bytes of a frame header (the magic and
        # half a CRC), whatever the kill itself left behind.
        with open(journal, "ab") as handle:
            handle.write(b"RXJF\x00\x00")

        # Resume leg: same batch, same journal — completed documents
        # replay from the journal, the rest are scored.
        resume_cmd = base_cmd + ["--journal", journal, "--resume"]
        resumed = _resume(resume_cmd + ["--out", out], env)
        if isinstance(resumed, str):
            return [resumed]
        replayed, scored = resumed
        if replayed < 1:
            # A resume that replays nothing proves nothing: the kill
            # must land after at least one record hit the journal.
            problems.append("vacuous gate: resume replayed 0 documents")
        if scored < 1:
            problems.append("vacuous gate: the kill landed after the batch")

        # Second resume: every frame the first one appended must be
        # readable past the torn tail, so nothing is scored again.
        again_out = os.path.join(tmp, "again.jsonl")
        again = _resume(resume_cmd + ["--out", again_out], env)
        if isinstance(again, str):
            return problems + [again]
        if again != (len(docs), 0):
            problems.append(
                f"second resume replayed {again[0]} + scored {again[1]} "
                f"of {len(docs)}; every document must replay"
            )
        with open(ref_out, "rb") as handle:
            ref_bytes = handle.read()
        for path, leg in ((out, "resumed"), (again_out, "second resume's")):
            with open(path, "rb") as handle:
                if handle.read() != ref_bytes:
                    problems.append(
                        f"{leg} output DIVERGED from the uninterrupted run"
                    )
        if not problems:
            print(
                f"kill-resume gate passed: SIGKILL mid-batch and a torn "
                f"tail, resume replayed {replayed} + scored {scored} of "
                f"{len(docs)}, a second resume replayed all {len(docs)}, "
                f"output byte-identical to the uninterrupted run"
            )
    return problems


GATES = {
    "executor": gate_executor,
    "kill-resume": gate_kill_resume,
}


def main(argv: "list[str] | None" = None) -> int:
    names = list(argv if argv is not None else sys.argv[1:]) or list(GATES)
    unknown = [n for n in names if n not in GATES]
    if unknown:
        print(f"unknown gate(s): {', '.join(unknown)} "
              f"(have: {', '.join(GATES)})", file=sys.stderr)
        return 2
    failed = False
    for name in names:
        problems = GATES[name]()
        if problems:
            failed = True
            print(f"chaos gate {name} FAILED:", file=sys.stderr)
            for problem in problems:
                print(f"  - {problem}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
