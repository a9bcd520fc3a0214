"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``disambiguate FILE``
    Run the full XSDF pipeline on an XML file and print either a
    per-node sense report (default) or the concept-annotated semantic
    XML tree (``--xml``).
``batch GLOB [GLOB ...]``
    Disambiguate a whole corpus of XML files through the cached,
    parallel runtime (:mod:`repro.runtime`): JSONL results to a file or
    stdout, optional metrics report (``--metrics-json``), packed index
    by default (``--no-index`` for the network walk), exact pruning on
    by default (``--no-prune`` for full score tables) and sphere
    memoization always on (it never changes a byte).  Every
    input document gets one JSONL line, in input order, a failed one
    included; the exit code is 1 when any document failed (130 after
    Ctrl-C, with the completed lines written).  ``--journal``/``--resume``
    make a killed batch resumable.
``serve``
    Run the long-lived disambiguation daemon (:mod:`repro.server`):
    the serial batch session behind HTTP.  The network loads and the
    packed index builds once, then ``POST /v1/disambiguate`` answers
    with two NDJSON lines, the record line ``repro batch`` writes for
    the document under the same pipeline flags (byte-identical) and its
    outcome envelope, while the caches stay warm across requests.
    ``GET /healthz`` and ``GET /metrics`` expose readiness and the live
    metrics snapshot; ``--max-concurrency`` bounds admission (503 +
    ``Retry-After``), and SIGTERM, SIGINT or SIGHUP drains gracefully
    (finish in-flight, refuse new connections, exit 0).  The daemon
    serves the one network and configuration it started with; another
    of either is another process.
``pack SHARD``
    Write a network's packed index to an on-disk ``RXPD`` shard
    (:mod:`repro.runtime.store`), stamped with the network's
    fingerprint: ``batch``/``serve`` then attach it read-only via
    ``mmap`` over that network only — no index build, no decode, and
    every attaching process shares the same physical pages through the
    OS page cache.  Pack the bundled lexicon, a ``--network`` JSON
    file, or a ``--synthetic N`` generated taxonomy; ``--verify``
    re-opens the shard and checks the full body CRC.
``audit FILE``
    Print the ambiguity-degree ranking of the file's nodes — which
    nodes are worth disambiguating, before spending any effort.
``lexicon``
    Summary statistics of the bundled mini-WordNet, or the sense
    inventory of one word (``--word``).
``lint [PATH ...]``
    Run reprolint (:mod:`repro.devtools`) over files/directories
    (default ``src tests benchmarks examples``): text or JSON findings,
    ``--rules`` filter, non-zero exit on any finding.

All pipeline knobs are exposed as flags (radius, approach, threshold,
weights, the strip-target-dimension extension, structure-only), each
defined once and shared by ``disambiguate``, ``batch`` and ``serve``.
"""

from __future__ import annotations

import argparse
import glob as globlib
import os
import sys

from . import __version__
from .core.ambiguity import rank_nodes
from .core.config import DisambiguationApproach, XSDFConfig
from .core.framework import XSDF
from .semnet import default_lexicon
from .similarity.combined import SimilarityWeights
from .xmltree.errors import XMLError

_APPROACHES = {
    "concept": DisambiguationApproach.CONCEPT_BASED,
    "context": DisambiguationApproach.CONTEXT_BASED,
    "combined": DisambiguationApproach.COMBINED,
}


def _workers_arg(value: str) -> int:
    """Argparse type for ``--workers``: an integer or ``auto``.

    Range validation (``>= 1``) stays with the consumer so ``--workers
    0`` keeps its historical "workers must be >= 1" error instead of an
    argparse usage message.
    """
    from .runtime.pool import parse_workers

    try:
        return parse_workers(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="XSDF: XML semantic disambiguation (EDBT 2015 reproduction)",
        allow_abbrev=False,
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # One definition per pipeline flag: the commands that score build
    # their XSDFConfig from the same flags through _make_config.
    pipeline = argparse.ArgumentParser(add_help=False)
    pipeline.add_argument("--radius", type=int, default=2,
                          help="sphere context radius d (default 2)")
    pipeline.add_argument("--approach", choices=sorted(_APPROACHES),
                          default="combined",
                          help="disambiguation process")
    pipeline.add_argument("--threshold", type=float, default=0.0,
                          help="ambiguity threshold Thresh_Amb (default 0)")
    pipeline.add_argument("--weights", metavar="EDGE,NODE,GLOSS",
                          default=None,
                          help="similarity weight mix, e.g. 1,1,1")
    pipeline.add_argument("--strip-target-dimension", action="store_true",
                          help="enable the context-vector bias fix "
                               "(extension)")
    pipeline.add_argument("--structure-only", action="store_true",
                          help="ignore text values (structure-only mode)")
    # The runtime's caching knobs, shared by the two runtime commands.
    caching = argparse.ArgumentParser(add_help=False)
    caching.add_argument("--cache-size", type=int, default=None,
                         help="bound for the similarity caches "
                              "(default 65536)")
    caching.add_argument("--no-prune", action="store_true",
                         help="disable exact candidate pruning (chosen "
                              "senses and scores are identical either "
                              "way; pruning omits provably-losing "
                              "candidates from per-node score tables)")

    dis = sub.add_parser("disambiguate", parents=[pipeline],
                         help="disambiguate an XML file")
    dis.add_argument("file", help="path to the XML document")
    dis.add_argument("--xml", action="store_true",
                     help="emit the semantic XML tree instead of a report")

    batch = sub.add_parser(
        "batch",
        parents=[pipeline, caching],
        help="disambiguate many XML files through the cached runtime",
    )
    batch.add_argument("patterns", nargs="+", metavar="GLOB",
                       help="file paths or glob patterns of XML documents")
    batch.add_argument("--workers", type=_workers_arg, default=1,
                       metavar="N|auto",
                       help="worker processes (1 = serial, default; "
                            "'auto' = one per CPU usable by this "
                            "process, affinity-aware)")
    batch.add_argument("--out", default=None,
                       help="write JSONL results here (default: stdout)")
    batch.add_argument("--metrics-json", default=None, metavar="PATH",
                       help="write the per-stage counter/timer/cache "
                            "snapshot (including memo and pruning "
                            "counters) as JSON to PATH for trend "
                            "tracking across runs")
    batch.add_argument("--no-index", action="store_true",
                       help="disable the precomputed index and caches "
                            "(uncached baseline)")
    batch.add_argument("--network", default=None, metavar="PATH",
                       help="disambiguate against a repro-semnet JSON "
                            "network instead of the bundled lexicon")
    batch.add_argument("--shard", default=None, metavar="RXPD",
                       help="attach the packed index from this RXPD "
                            "shard via mmap instead of building it "
                            "(requires --network; fingerprint-checked)")
    batch.add_argument("--journal", default=None, metavar="PATH",
                       help="append each completed document to this "
                            "crash-safe outcome journal (WAL) as it "
                            "finishes; a killed run loses at most the "
                            "in-flight documents")
    batch.add_argument("--resume", action="store_true",
                       help="replay --journal before scoring: documents "
                            "the journal proves complete are re-emitted "
                            "byte-identically instead of re-scored "
                            "(requires --journal)")

    pack = sub.add_parser(
        "pack",
        help="write a network's packed index to an RXPD shard file",
    )
    pack.add_argument("out", metavar="SHARD",
                      help="output shard path (conventionally .rxpd)")
    pack.add_argument("--network", default=None, metavar="PATH",
                      help="pack this repro-semnet JSON network "
                           "(default: the bundled lexicon)")
    pack.add_argument("--synthetic", type=int, default=None, metavar="N",
                      help="pack an N-concept generated synthetic "
                           "network instead")
    pack.add_argument("--seed", type=int, default=7,
                      help="synthetic generation seed (default 7)")
    pack.add_argument("--gloss-style", choices=("sphere", "local"),
                      default="local",
                      help="synthetic gloss synthesis: radius-2 "
                           "neighborhood sampling or the O(1) local "
                           "fast path (default local; --synthetic only)")
    pack.add_argument("--verify", action="store_true",
                      help="re-open the shard and deep-verify the "
                           "body CRC after writing")

    serve = sub.add_parser(
        "serve",
        parents=[pipeline, caching],
        help="run the long-lived disambiguation HTTP daemon",
    )
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8750,
                       help="bind port (default 8750; 0 binds an "
                            "ephemeral port, announced on stderr)")
    serve.add_argument("--network", default=None, metavar="PATH",
                       help="serve a repro-semnet JSON network instead "
                            "of the bundled lexicon")
    serve.add_argument("--max-concurrency", type=int, default=8,
                       help="disambiguation requests admitted at once; "
                            "excess requests get 503 + Retry-After "
                            "(default 8)")
    serve.add_argument("--max-body-bytes", type=int, default=None,
                       help="largest accepted request body; bigger "
                            "bodies get 413 (default 1 MiB)")
    serve.add_argument("--drain-timeout", type=float, default=10.0,
                       metavar="SECONDS",
                       help="how long a drain (SIGTERM, SIGINT or "
                            "SIGHUP) waits for in-flight requests "
                            "before cancelling stragglers (default 10; "
                            "0 cancels them at once)")
    serve.add_argument("--metrics-json", default=None, metavar="PATH",
                       help="flush the final metrics snapshot here on "
                            "shutdown (live snapshot: GET /metrics)")
    serve.add_argument("--shard", default=None, metavar="RXPD",
                       help="attach the served index from this RXPD "
                            "shard via mmap instead of building it "
                            "(CRC- and fingerprint-checked against the "
                            "served network)")

    audit = sub.add_parser("audit", help="rank nodes by ambiguity degree")
    audit.add_argument("file", help="path to the XML document")
    audit.add_argument("--top", type=int, default=15,
                       help="how many nodes to show (default 15)")

    lex = sub.add_parser("lexicon", help="inspect the bundled lexicon")
    lex.add_argument("--word", default=None,
                     help="show the sense inventory of one word")

    match = sub.add_parser(
        "match", help="semantically match two documents' tag vocabularies"
    )
    match.add_argument("file_a", help="first XML document")
    match.add_argument("file_b", help="second XML document")
    match.add_argument("--min-score", type=float, default=0.5,
                       help="drop soft matches below this similarity")

    val = sub.add_parser(
        "validate", help="validate a semantic network JSON file"
    )
    val.add_argument("file", help="path to a repro-semnet JSON document")

    corpus = sub.add_parser(
        "corpus", help="export the generated test collection to a directory"
    )
    corpus.add_argument("directory", help="output directory")
    corpus.add_argument("--seed", type=int, default=2015,
                        help="generation seed (default 2015)")

    rep = sub.add_parser(
        "report",
        help="regenerate every paper table/figure (markdown to stdout)",
    )
    rep.add_argument("--out", default=None,
                     help="write the report to a file instead of stdout")

    lint = sub.add_parser(
        "lint",
        help="check XSDF correctness contracts (reprolint)",
    )
    lint.add_argument("paths", nargs="*", metavar="PATH",
                      help="files, directories, or glob patterns "
                           "(default: src tests benchmarks examples)")
    lint.add_argument("--format", choices=("text", "json"),
                      default="text",
                      help="report format (default text)")
    lint.add_argument("--rules", default=None, metavar="ID[,ID...]",
                      help="run only these rule IDs")
    lint.add_argument("--list-rules", action="store_true",
                      help="print the rule catalogue and exit")
    # One spelling per flag: argparse would otherwise also accept any
    # unambiguous prefix (``--metrics`` for ``--metrics-json``).
    for command in sub.choices.values():
        command.allow_abbrev = False
    return parser


def _make_config(args: argparse.Namespace) -> XSDFConfig:
    mix: tuple[float, ...] = ()  # () keeps the paper's uniform mix
    if args.weights:
        try:
            edge, node, gloss = (float(x) for x in args.weights.split(","))
        except ValueError:
            raise SystemExit(
                f"--weights expects EDGE,NODE,GLOSS numbers, got {args.weights!r}"
            )
        mix = (edge, node, gloss)
    # An out-of-range flag value (--radius 0, --threshold 2, --weights
    # 0,0,0) is the config's own ValueError, reported as one line.
    try:
        return XSDFConfig(
            sphere_radius=args.radius,
            approach=_APPROACHES[args.approach],
            ambiguity_threshold=args.threshold,
            similarity_weights=SimilarityWeights(*mix),
            include_values=not args.structure_only,
            strip_target_dimension=args.strip_target_dimension,
            # A runtime-only flag; the disambiguate parser keeps the default.
            prune=not getattr(args, "no_prune", False),
        )
    except ValueError as exc:
        raise SystemExit(str(exc))


def _read(path: str) -> str:
    # A byte that is not UTF-8 becomes a lone surrogate, which
    # ``xmltree.parse`` rejects as a located XMLSyntaxError: one bad
    # file fails that document (at stage ``parse`` in a batch), not
    # the whole command at read time.
    try:
        with open(path, encoding="utf-8", errors="surrogateescape") as handle:
            return handle.read()
    except OSError as exc:
        raise SystemExit(f"cannot read {path}: {exc}")


def _load_network(path: str):
    from .semnet.io import NetworkFormatError, load_network

    try:
        return load_network(path)
    except NetworkFormatError as exc:
        raise SystemExit(f"unreadable network: {exc}")
    except OSError as exc:
        raise SystemExit(f"cannot read network {path}: {exc}")


def _cmd_disambiguate(args: argparse.Namespace, out) -> int:
    network = default_lexicon()
    xsdf = XSDF(network, _make_config(args))
    text = _read(args.file)
    if args.xml:
        out.write(xsdf.to_semantic_xml(text))
        return 0
    result = xsdf.disambiguate_document(text)
    out.write(
        f"{result.n_targets} targets / {result.n_nodes} nodes "
        f"(radius d={result.radius})\n"
    )
    out.write(f"{'label':<18}{'sense':<22}{'score':>7}  gloss\n")
    for assignment in result.assignments:
        gloss = network.concept(assignment.concept_id).gloss
        out.write(
            f"{assignment.label:<18}{assignment.concept_id:<22}"
            f"{assignment.score:>7.3f}  {gloss[:44]}\n"
        )
    return 0


def _cmd_batch(args: argparse.Namespace, out) -> int:
    from collections import defaultdict, deque

    from .runtime.executor import (
        DEFAULT_CACHE_SIZE,
        BatchExecutor,
        BatchRecord,
    )
    from .runtime.journal import document_digest
    from .runtime.metrics import MetricsRegistry, batch_summary

    paths: list[str] = []
    for pattern in args.patterns:
        matches = sorted(globlib.glob(pattern, recursive=True))
        if not matches:
            raise SystemExit(f"no files match {pattern!r}")
        paths.extend(matches)
    documents = [(path, _read(path)) for path in paths]

    network, prebuilt_index = _resolve_batch_index(args)
    config = _make_config(args)
    journal, run_docs, todo_indices, replayed = _open_journal(
        args, config, network, documents
    )
    # run_docs position -> final record, fed by the executor's
    # record_hook in completion order.  This is both the journal's
    # append point and the KeyboardInterrupt salvage: whatever is here
    # when the batch dies is what the partial output can emit.
    completed_by_pos: dict[int, BatchRecord] = {}
    pending_by_name: dict[str, deque[int]] = defaultdict(deque)
    digest_by_name: dict[str, str] = {}
    for pos, (name, xml) in enumerate(run_docs):
        pending_by_name[name].append(pos)
        digest_by_name[name] = document_digest(xml)

    def _record_hook(record: "BatchRecord") -> None:
        queue = pending_by_name.get(record.name)
        if queue:
            completed_by_pos[queue.popleft()] = record
        if journal is not None:
            journal.append(record, digest_by_name[record.name])

    metrics = MetricsRegistry()
    try:
        executor = BatchExecutor(
            network,
            config,
            workers=args.workers,
            use_index=not args.no_index,
            cache_size=(
                args.cache_size if args.cache_size is not None
                else DEFAULT_CACHE_SIZE
            ),
            metrics=metrics,
            index=prebuilt_index,
            record_hook=_record_hook,
        )
    except ValueError as exc:
        if journal is not None:
            journal.close()
        raise SystemExit(str(exc))
    interrupted = False
    try:
        scored_by_pos = dict(enumerate(executor.run(run_docs)))
    except KeyboardInterrupt:
        # Salvage what completed: the hook saw every finalized record,
        # so the partial output (and the journal, flushed below) keeps
        # the finished work instead of dying with a truncated file.
        interrupted = True
        scored_by_pos = completed_by_pos
    finally:
        # One batch per CLI process: drain the persistent pool before
        # writing results.
        executor.close()
        if journal is not None:
            journal.close()
    if args.metrics_json:
        metrics.write_json(args.metrics_json)

    records = _merge_replayed(documents, todo_indices, replayed, scored_by_pos)
    failures = [r for r in records if not r.ok]
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            for record in records:
                handle.write(record.to_json_line())
                handle.write("\n")
    else:
        for record in records:
            out.write(record.to_json_line())
            out.write("\n")

    summary = batch_summary(metrics.snapshot(), len(records), len(failures))
    if not args.no_index and completed_by_pos:
        # Where the index tables physically lived during the run:
        # "mmap" proves the zero-copy shard attach actually happened,
        # "heap" that the index was built in this process.  A batch
        # the journal replayed in full scored nothing and built none.
        summary += f", index={executor.index.backing}"
    if args.journal:
        summary += (
            f", journal replayed={len(replayed)} "
            f"scored={len(completed_by_pos)} -> {args.journal}"
        )
    if interrupted:
        summary = (
            f"interrupted: wrote {len(records)}/{len(documents)} "
            f"records; " + summary
        )
    stream = sys.stderr if not args.out else out
    stream.write(summary + "\n")
    for record in failures:
        outcome = record.outcome
        stream.write(
            f"  FAILED {record.name}: {record.error} "
            f"[stage={outcome.stage or 'pipeline'}, "
            f"attempts={outcome.attempts}]\n"
        )
    if interrupted:
        return 130  # the conventional SIGINT exit code (128 + 2)
    return 1 if failures else 0


def _resolve_batch_index(args: argparse.Namespace):
    """The (network, prebuilt index) for a batch.

    Three sources, in priority order: an RXPD shard attached over an
    explicit network, a bare network JSON, or the bundled lexicon.
    Shard fingerprints are always checked against the network so a
    stale shard fails loudly instead of scoring wrong.
    """
    if args.shard and not args.network:
        raise SystemExit(
            "--shard requires --network (the shard's source network)"
        )
    if args.shard and args.no_index:
        raise SystemExit(
            "--shard already provides a packed index; drop --no-index"
        )
    if args.shard:
        network = _load_network(args.network)
        return network, _attach_shard(args.shard, network)
    if args.network:
        return _load_network(args.network), None
    return default_lexicon(), None


def _attach_shard(path: str, network):
    """Attach an RXPD shard with the full CRC check, or exit cleanly.

    The check ``repro serve`` makes too: a missing,
    truncated, rotted, unstamped or stale (fingerprint-mismatched)
    shard becomes a one-line ``cannot attach shard`` exit before any
    scoring, never a traceback from the middle of a batch.
    """
    from .runtime.pack import PackedIndex, PackedIndexError

    try:
        return PackedIndex.from_mmap(
            path, verify=True, expect_fingerprint=network.fingerprint()
        )
    except (PackedIndexError, OSError) as exc:
        raise SystemExit(f"cannot attach shard {path}: {exc}")


def _open_journal(args: argparse.Namespace, config, network, documents):
    """Set up the batch journal and split replayed from to-score work.

    Returns ``(journal, run_docs, todo_indices, replayed)``: the open
    :class:`~repro.runtime.journal.JournalWriter` (or ``None``), the
    documents still needing scores, their indices into ``documents``,
    and ``{document index: journal entry}`` for the completed ones.
    ``--resume`` refuses a journal stamped with a different config or
    network fingerprint — replaying those records would break the
    byte-identity contract.
    """
    if args.resume and not args.journal:
        raise SystemExit("--resume requires --journal")
    if args.journal is None:
        return None, documents, list(range(len(documents))), {}
    from .runtime.journal import (
        JournalError,
        JournalWriter,
        document_digest,
        read_journal,
    )

    meta = {
        "config": config.fingerprint(),
        "network": network.fingerprint(),
    }
    replayed: dict[int, dict] = {}
    todo = list(range(len(documents)))
    if args.resume:
        try:
            replay = read_journal(args.journal)
        except JournalError as exc:
            raise SystemExit(f"cannot resume: {exc}")
        if not replay.matches(meta["config"], meta["network"]):
            raise SystemExit(
                f"cannot resume: journal {args.journal} was written under "
                f"a different configuration or network; rerun without "
                f"--resume to start over"
            )
        done = replay.completed()
        todo = []
        for i, (name, xml) in enumerate(documents):
            entry = done.get((name, document_digest(xml)))
            if entry is None:
                todo.append(i)
            else:
                replayed[i] = entry
    try:
        journal = JournalWriter(args.journal, meta=meta, resume=args.resume)
    except OSError as exc:
        raise SystemExit(f"cannot open journal {args.journal}: {exc}")
    run_docs = [documents[i] for i in todo]
    return journal, run_docs, todo, replayed


def _merge_replayed(documents, todo_indices, replayed, scored_by_pos):
    """Merge replayed journal entries and fresh records in input order.

    ``scored_by_pos`` maps a position in the scored documents
    (``todo_indices``) to its record.  Replayed entries are
    reconstituted into :class:`BatchRecord` objects whose JSONL
    rendering is byte-identical to the line the crashed run would have
    written (``to_dict`` round-trips through canonical JSON).  After a
    KeyboardInterrupt unfinished documents are simply absent from the
    output.  A journal is input from outside the program, so an entry
    without an outcome gets one built from its record.
    """
    from .runtime.executor import BatchRecord
    from .runtime.resilience import STATUS_FAILED, STATUS_OK, DocOutcome

    pos_of_doc = {doc_idx: pos for pos, doc_idx in enumerate(todo_indices)}
    merged = []
    for doc_idx in range(len(documents)):
        entry = replayed.get(doc_idx)
        if entry is not None:
            rec = entry["record"]
            error = rec.get("error")
            merged.append(BatchRecord(
                name=rec["name"],
                result=rec.get("result"),
                error=error,
                elapsed_s=0.0,
                outcome=(
                    DocOutcome.from_dict(entry["outcome"])
                    if "outcome" in entry else DocOutcome(
                        name=rec["name"],
                        status=STATUS_OK if error is None else STATUS_FAILED,
                    )
                ),
            ))
            continue
        record = scored_by_pos.get(pos_of_doc[doc_idx])
        if record is not None:
            merged.append(record)
    return merged


def _cmd_pack(args: argparse.Namespace, out) -> int:
    import time as timelib

    from .runtime.pack import PackedIndex
    from .runtime.store import verify_shard, write_shard

    if args.network and args.synthetic:
        raise SystemExit("--network and --synthetic are mutually exclusive")
    if args.synthetic is not None:
        from .semnet.generator import GeneratorConfig, generate_network

        try:
            network = generate_network(GeneratorConfig(
                n_concepts=args.synthetic,
                seed=args.seed,
                gloss_style=args.gloss_style,
            ))
        except ValueError as exc:
            raise SystemExit(str(exc))
    elif args.network:
        network = _load_network(args.network)
    else:
        network = default_lexicon()
    start = timelib.perf_counter()
    index = PackedIndex(network)
    try:
        info = write_shard(index, args.out, fingerprint=network.fingerprint())
    except OSError as exc:
        raise SystemExit(f"cannot write shard {args.out}: {exc}")
    elapsed = timelib.perf_counter() - start
    out.write(
        f"packed {info['concepts']} concepts -> {info['path']} "
        f"({info['shard_bytes']} bytes, {elapsed:.2f}s)\n"
    )
    if args.verify:
        stats = verify_shard(args.out)
        out.write(
            f"verified: body CRC ok, {stats['ancestor_entries']} closure "
            f"entries, fingerprint {stats['fingerprint']}\n"
        )
    return 0


def _cmd_serve(args: argparse.Namespace, out) -> int:
    from .runtime.executor import DEFAULT_CACHE_SIZE
    from .server import ReproServer, ServerApp, ServerConfig
    from .server.lifecycle import announce_to_stderr
    from .server.protocol import DEFAULT_MAX_BODY_BYTES

    if args.network:
        network = _load_network(args.network)
    else:
        network = default_lexicon()
    try:
        server_config = ServerConfig(
            host=args.host,
            port=args.port,
            max_concurrency=args.max_concurrency,
            max_body_bytes=(
                args.max_body_bytes if args.max_body_bytes is not None
                else DEFAULT_MAX_BODY_BYTES
            ),
            drain_timeout=args.drain_timeout,
            metrics_json=args.metrics_json,
            cache_size=(
                args.cache_size if args.cache_size is not None
                else DEFAULT_CACHE_SIZE
            ),
            shard=args.shard,
        )
    except ValueError as exc:
        raise SystemExit(str(exc))
    app = ServerApp(
        network, config=_make_config(args), server_config=server_config
    )
    if args.shard:
        from .runtime.pack import PackedIndexError

        # Attach the CRC-checked shard before listening, so a missing,
        # damaged, stale or unstamped shard is one line, as in batch.
        try:
            app.warm_up()
        except (PackedIndexError, OSError) as exc:
            app.close()
            raise SystemExit(f"cannot attach shard {args.shard}: {exc}")
    return ReproServer(app).serve(announce=announce_to_stderr)


def _cmd_audit(args: argparse.Namespace, out) -> int:
    network = default_lexicon()
    xsdf = XSDF(network, XSDFConfig())
    tree = xsdf.build_tree(_read(args.file))
    out.write(f"{'label':<18}{'Amb_Deg':>8}{'senses':>8}{'depth':>7}\n")
    for report in rank_nodes(tree, network)[: args.top]:
        out.write(
            f"{report.label:<18}{report.degree:>8.4f}"
            f"{network.polysemy(report.label):>8}"
            f"{tree[report.node_index].depth:>7}\n"
        )
    return 0


def _cmd_lexicon(args: argparse.Namespace, out) -> int:
    network = default_lexicon()
    if args.word is None:
        for key, value in network.stats().items():
            out.write(f"{key:>16}: {value}\n")
        return 0
    senses = network.senses(args.word)
    if not senses:
        out.write(f"{args.word!r} is not in the lexicon\n")
        return 1
    for sense in senses:
        out.write(f"{sense.id:<22} {sense.gloss}\n")
    return 0


def _cmd_match(args: argparse.Namespace, out) -> int:
    from .applications.matching import SemanticMatcher

    network = default_lexicon()
    xsdf = XSDF(network, XSDFConfig(
        sphere_radius=2, strip_target_dimension=True,
    ))
    matcher = SemanticMatcher(xsdf, min_score=args.min_score)
    correspondences = matcher.match(_read(args.file_a), _read(args.file_b))
    if not correspondences:
        out.write("no correspondences found\n")
        return 1
    out.write(f"{'label A':<16}{'label B':<16}{'score':>7}  concepts\n")
    for c in correspondences:
        concepts = (
            c.concept_a if c.exact else f"{c.concept_a} ~ {c.concept_b}"
        )
        out.write(
            f"{c.label_a:<16}{c.label_b:<16}{c.score:>7.3f}  {concepts}\n"
        )
    return 0


def _cmd_validate(args: argparse.Namespace, out) -> int:
    from .semnet.io import NetworkFormatError, load_network
    from .semnet.validate import validate_network

    try:
        network = load_network(args.file)
    except NetworkFormatError as exc:
        out.write(f"unreadable network: {exc}\n")
        return 2
    except OSError as exc:
        out.write(f"cannot read network {args.file}: {exc}\n")
        return 2
    report = validate_network(network)
    for issue in report.issues:
        out.write(f"{issue.severity:>8}  {issue.code:<16} {issue.message}\n")
    if report.ok:
        out.write(
            f"ok: {len(network)} concepts, "
            f"{len(report.warnings())} warning(s)\n"
        )
        return 0
    out.write(f"invalid: {len(report.errors())} error(s)\n")
    return 1


def _cmd_corpus(args: argparse.Namespace, out) -> int:
    from .datasets.export import export_corpus

    manifest = export_corpus(args.directory, seed=args.seed)
    n_docs = sum(len(d["documents"]) for d in manifest["datasets"])
    out.write(
        f"exported {n_docs} documents across "
        f"{len(manifest['datasets'])} datasets to {args.directory}\n"
    )
    return 0


def _cmd_report(args: argparse.Namespace, out) -> int:
    from .evaluation.experiments import full_report

    report = full_report()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(report)
        out.write(f"report written to {args.out}\n")
    else:
        out.write(report)
    return 0


def _cmd_lint(args: argparse.Namespace, out) -> int:
    from .devtools import RULE_CLASSES, all_rules, find_project_root, lint_paths
    from .devtools.reporters import render_json, render_text

    if args.list_rules:
        width = max(len(rule_id) for rule_id in RULE_CLASSES)
        for rule_id, rule_class in sorted(RULE_CLASSES.items()):
            out.write(f"{rule_id:<{width}}  {rule_class.description}\n")
        return 0
    try:
        rules = all_rules(
            args.rules.split(",") if args.rules else None
        )
    except ValueError as exc:
        raise SystemExit(str(exc))
    paths: list[str] = []
    for pattern in args.paths or ["src", "tests", "benchmarks", "examples"]:
        matches = sorted(globlib.glob(pattern, recursive=True))
        if matches:
            paths.extend(matches)
        else:
            # Not a glob hit — keep it literal so missing paths error
            # loudly below instead of silently linting nothing.
            paths.append(pattern)
    for path in paths:
        if not os.path.exists(path):
            raise SystemExit(f"cannot lint {path}: no such file or directory")

    project_root = find_project_root(paths[0]) if paths else None
    findings = lint_paths(paths, rules=rules, project_root=project_root)
    render = render_json if args.format == "json" else render_text
    out.write(render(findings))
    return 1 if findings else 0


def main(argv: list[str] | None = None, out=None) -> int:
    """CLI entry point; returns the process exit code."""
    out = out or sys.stdout
    args = build_parser().parse_args(argv)
    handlers = {
        "disambiguate": _cmd_disambiguate,
        "batch": _cmd_batch,
        "pack": _cmd_pack,
        "serve": _cmd_serve,
        "audit": _cmd_audit,
        "lexicon": _cmd_lexicon,
        "match": _cmd_match,
        "validate": _cmd_validate,
        "report": _cmd_report,
        "corpus": _cmd_corpus,
        "lint": _cmd_lint,
    }
    try:
        return handlers[args.command](args, out)
    except BrokenPipeError:
        # Downstream pager/head closed the pipe — conventional clean exit.
        return 0
    except XMLError as exc:
        # A malformed input document (disambiguate, audit, match): one
        # line, already located, instead of a traceback.
        raise SystemExit(f"{type(exc).__name__}: {exc}")


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
