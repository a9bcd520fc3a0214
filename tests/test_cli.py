"""Tests for the command-line interface."""

from __future__ import annotations

import argparse
import io
import json
import re
import socket
import struct

import pytest

from repro.cli import _make_config, build_parser, main
from repro.core.config import XSDFConfig
from repro.runtime.journal import read_journal


@pytest.fixture()
def xml_file(tmp_path, figure1_xml):
    path = tmp_path / "doc.xml"
    path.write_text(figure1_xml, encoding="utf-8")
    return str(path)


def run(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


class TestDisambiguate:
    def test_report(self, xml_file):
        code, output = run(["disambiguate", xml_file])
        assert code == 0
        assert "targets" in output
        assert "movie.n.01" in output

    def test_xml_output(self, xml_file):
        code, output = run(["disambiguate", xml_file, "--xml"])
        assert code == 0
        assert output.startswith('<?xml version="1.0"?>')
        assert 'concept="' in output

    def test_flags(self, xml_file):
        code, output = run([
            "disambiguate", xml_file,
            "--radius", "1",
            "--approach", "concept",
            "--threshold", "0.02",
            "--weights", "1,0,1",
            "--strip-target-dimension",
        ])
        assert code == 0
        assert "d=1" in output

    def test_structure_only(self, xml_file):
        code, output = run(["disambiguate", xml_file, "--structure-only"])
        assert code == 0
        assert "kelly" not in output

    def test_bad_weights(self, xml_file):
        with pytest.raises(SystemExit):
            run(["disambiguate", xml_file, "--weights", "nope"])

    def test_missing_file(self):
        with pytest.raises(SystemExit):
            run(["disambiguate", "/nonexistent/file.xml"])


class TestVersion:
    def test_version_flag(self, capsys):
        from repro import __version__

        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert f"repro {__version__}" in capsys.readouterr().out


class TestBatch:
    def test_batch_to_jsonl(self, tmp_path, figure1_xml):
        import json

        for i in range(3):
            (tmp_path / f"doc-{i}.xml").write_text(
                figure1_xml, encoding="utf-8"
            )
        out_path = tmp_path / "results.jsonl"
        metrics_path = tmp_path / "metrics.json"
        code, output = run([
            "batch", str(tmp_path / "*.xml"),
            "--out", str(out_path),
            "--metrics-json", str(metrics_path),
        ])
        assert code == 0
        assert "3 documents, 0 failed" in output
        lines = out_path.read_text().splitlines()
        assert len(lines) == 3
        records = [json.loads(line) for line in lines]
        assert all(r["ok"] for r in records)
        assert records[0]["result"]["assignments"]
        metrics = json.loads(metrics_path.read_text())
        assert metrics["counters"]["batch_documents"] == 3
        assert "similarity_pairs" in metrics["caches"]

    def test_batch_failure_exit_code(self, tmp_path, figure1_xml):
        (tmp_path / "good.xml").write_text(figure1_xml, encoding="utf-8")
        (tmp_path / "bad.xml").write_text("<oops>", encoding="utf-8")
        out_path = tmp_path / "results.jsonl"
        code, output = run([
            "batch", str(tmp_path / "*.xml"), "--out", str(out_path),
        ])
        assert code == 1
        assert "1 failed" in output
        assert "FAILED" in output
        assert len(out_path.read_text().splitlines()) == 2

    def test_batch_no_match(self):
        with pytest.raises(SystemExit):
            run(["batch", "/nonexistent/*.xml"])

    def test_batch_modes_are_byte_identical(
        self, tmp_path, lexicon, monkeypatch
    ):
        """The 60-document Table 3 corpus reproduces the golden digest
        through the library call, ``repro batch`` serially, with
        ``--workers 2``, with ``--shard``, with ``--no-index`` and with
        ``--resume`` over a journal of a prefix of the corpus, and
        through the in-process server."""
        import asyncio
        import json

        from repro import XSDF, XSDFConfig
        from repro.datasets import generate_test_corpus
        from repro.runtime import executor as executor_module
        from repro.semnet.io import load_network, save_network
        from repro.server import ServerApp, ServerConfig

        from .golden import GOLDEN_ANNOTATIONS_SHA256, annotations_digest
        from .server.conftest import disambiguate, request, running

        corpus = [
            (f"doc-{i:02d}", doc.xml)
            for i, doc in enumerate(generate_test_corpus())
        ]
        for name, xml in corpus:
            (tmp_path / f"{name}.xml").write_text(xml, encoding="utf-8")
        # Every run loads the JSON network the shard is packed from
        # (see TestPackAndStore._pack_lexicon on cross-source floats).
        network_json = tmp_path / "lexicon.network.json"
        shard = tmp_path / "lexicon.rxpd"
        save_network(lexicon, str(network_json))
        network = load_network(str(network_json))
        assert run(["pack", str(shard), "--network", str(network_json)])[0] == 0

        xsdf = XSDF(network, XSDFConfig())
        library = [xsdf.disambiguate_document(xml).to_dict() for _, xml in corpus]
        assert annotations_digest(library) == GOLDEN_ANNOTATIONS_SHA256

        # --resume: journal the first 25 documents, then resume over
        # all 60, replaying those 25 and scoring the other 35.
        journal = tmp_path / "prefix.rxjf"
        code, output = run([
            "batch", str(tmp_path / "doc-[01]*.xml"),
            str(tmp_path / "doc-2[0-4].xml"), "--out",
            str(tmp_path / "prefix.jsonl"), "--network", str(network_json),
            "--journal", str(journal),
        ])
        assert code == 0, output
        assert "journal replayed=0 scored=25" in output

        # Oversubscribe: --workers 2 runs a real pool on 1-CPU hosts.
        monkeypatch.setattr(executor_module, "auto_workers", lambda: 2)
        for mode in ([], ["--workers", "2"], ["--shard", str(shard)],
                     ["--no-index"], ["--journal", str(journal), "--resume"]):
            out_path = tmp_path / "out.jsonl"
            code, output = run([
                "batch", str(tmp_path / "doc-*.xml"), "--out",
                str(out_path), "--network", str(network_json), *mode,
            ])
            assert code == 0, output
            assert "60 documents, 0 failed" in output
            if "--resume" in mode:
                assert "journal replayed=25 scored=35" in output
            records = [
                json.loads(line)
                for line in out_path.read_text(encoding="utf-8").splitlines()
            ]
            assert [record["name"] for record in records] == sorted(
                str(tmp_path / f"{name}.xml") for name, _ in corpus
            ), mode
            assert annotations_digest(
                record["result"] for record in records
            ) == GOLDEN_ANNOTATIONS_SHA256, mode

        async def serve_corpus():
            app = ServerApp(network, server_config=ServerConfig(port=0))
            async with running(app) as server:
                return [
                    (await request(server, disambiguate(xml, name=name)))
                    .ndjson()[-2]["result"]
                    for name, xml in corpus
                ]

        served = asyncio.run(serve_corpus())
        assert annotations_digest(served) == GOLDEN_ANNOTATIONS_SHA256


class TestAudit:
    def test_ranking(self, xml_file):
        code, output = run(["audit", xml_file, "--top", "4"])
        assert code == 0
        lines = [line for line in output.splitlines() if line.strip()]
        assert len(lines) == 1 + 4  # header + top rows
        assert "Amb_Deg" in lines[0]


class TestLexicon:
    def test_stats(self):
        code, output = run(["lexicon"])
        assert code == 0
        assert "concepts" in output
        assert "max_polysemy" in output

    def test_word_lookup(self):
        code, output = run(["lexicon", "--word", "star"])
        assert code == 0
        assert "star.n.01" in output and "star.n.02" in output

    def test_unknown_word(self):
        code, output = run(["lexicon", "--word", "zzzznothing"])
        assert code == 1
        assert "not in the lexicon" in output


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_known_commands(self):
        parser = build_parser()
        for command in ("disambiguate", "audit", "lexicon"):
            args = parser.parse_args(
                [command] + (["f.xml"] if command != "lexicon" else [])
            )
            assert args.command == command

    def test_pipeline_flags_build_one_config_in_every_command(self):
        parser = build_parser()
        pipeline = ["--radius", "1", "--approach", "concept",
                    "--threshold", "0.25", "--weights", "2,1,1",
                    "--strip-target-dimension", "--structure-only"]
        runtime = ["--cache-size", "64", "--no-prune"]
        heads = (["disambiguate", "f.xml"], ["batch", "*.xml"], ["serve"])
        configs = [
            _make_config(parser.parse_args(head + pipeline))
            for head in heads
        ]
        assert configs[0] == configs[1] == configs[2] != XSDFConfig()
        batch, serve = (
            parser.parse_args(head + pipeline + runtime)
            for head in heads[1:]
        )
        assert _make_config(batch) == _make_config(serve)
        assert not _make_config(serve).prune
        # The memo never changes a byte: no flag turns it off.
        assert all(config.memo for config in configs)
        assert batch.cache_size == serve.cache_size == 64

    def test_flag_inventory(self):
        """Every ``--`` flag of every subcommand, as ``build_parser()``
        builds it, with its one spelling.  A new flag is a deliberate
        edit here; ROADMAP's flag counts are this test's."""
        pipeline = ["--radius", "--approach", "--threshold", "--weights",
                    "--strip-target-dimension", "--structure-only"]
        caching = ["--cache-size", "--no-prune"]
        expected = {
            "disambiguate": pipeline + ["--xml"],
            "batch": pipeline + caching + [
                "--workers", "--out", "--metrics-json", "--no-index",
                "--network", "--shard", "--journal", "--resume",
            ],
            "pack": ["--network", "--synthetic", "--seed", "--gloss-style",
                     "--verify"],
            "serve": pipeline + caching + [
                "--host", "--port", "--network", "--max-concurrency",
                "--max-body-bytes", "--drain-timeout", "--metrics-json",
                "--shard",
            ],
            "audit": ["--top"],
            "lexicon": ["--word"],
            "match": ["--min-score"],
            "validate": [],
            "corpus": ["--seed"],
            "report": ["--out"],
            "lint": ["--format", "--rules", "--list-rules"],
        }
        (commands,) = [
            action.choices for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        ]
        spellings = {
            command: [
                action.option_strings
                for action in parser._actions
                if action.option_strings and action.dest != "help"
            ]
            for command, parser in commands.items()
        }
        assert spellings == {
            command: [[flag] for flag in flags]
            for command, flags in expected.items()
        }
        assert sum(len(flags) for flags in expected.values()) == 52
        assert len({f for flags in expected.values() for f in flags}) == 32


def _out_of_range_argvs():
    """Each scoring command with each out-of-range flag value."""
    heads = (["disambiguate", "DOC"], ["batch", "DOC"],
             ["serve", "--port", "0"])
    pipeline = (
        (["--radius", "0"], "sphere_radius must be >= 1"),
        (["--weights", "0,0,0"],
         "at least one similarity weight must be positive"),
        (["--weights", "nan,1,1"], "similarity weights must be finite"),
        (["--threshold", "2"], "ambiguity_threshold must be in [0, 1]"),
    )
    cases = [
        (head + flags, message) for head in heads for flags, message in pipeline
    ] + [
        (head + ["--cache-size", "0"], "cache_size must be >= 1")
        for head in heads[1:]
    ] + [(["serve", "--port", "70000"], "port must be in [0, 65535]")]
    return [
        pytest.param(argv, message, id=" ".join(a for a in argv if a != "DOC"))
        for argv, message in cases
    ]


class TestFlagValues:
    """An out-of-range flag value is one line, never a traceback, and
    ``serve`` exits before it listens; so is an address ``serve``
    cannot bind."""

    @pytest.mark.parametrize("argv, message", _out_of_range_argvs())
    def test_out_of_range_value_exits_with_its_message(
        self, xml_file, argv, message
    ):
        argv = [xml_file if a == "DOC" else a for a in argv]
        with pytest.raises(SystemExit, match=re.escape(message)):
            run(argv)

    def test_serve_on_a_taken_port_exits_with_one_line(self):
        with socket.socket() as taken:
            taken.bind(("127.0.0.1", 0))
            taken.listen()
            port = taken.getsockname()[1]
            with pytest.raises(SystemExit, match=re.escape(
                f"cannot listen on 127.0.0.1:{port}: "
            )):
                run(["serve", "--host", "127.0.0.1", "--port", str(port)])


class TestMatch:
    def test_match_two_documents(self, tmp_path, figure1_xml):
        a = tmp_path / "a.xml"
        a.write_text(figure1_xml, encoding="utf-8")
        b = tmp_path / "b.xml"
        b.write_text(
            "<movies><movie><name>Vertigo</name>"
            "<actors><actor>Novak</actor></actors></movie></movies>",
            encoding="utf-8",
        )
        code, output = run(["match", str(a), str(b)])
        assert code == 0
        assert "movie" in output

    def test_no_matches_exit_code(self, tmp_path):
        a = tmp_path / "a.xml"
        a.write_text("<zzz/>", encoding="utf-8")
        b = tmp_path / "b.xml"
        b.write_text("<qqq/>", encoding="utf-8")
        code, output = run(["match", str(a), str(b)])
        assert code == 1
        assert "no correspondences" in output


class TestValidate:
    def test_valid_network(self, tmp_path, lexicon):
        from repro.semnet.io import save_network

        path = tmp_path / "net.json"
        save_network(lexicon, path)
        code, output = run(["validate", str(path)])
        assert code == 0
        assert "ok:" in output

    def test_unreadable_network(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{}", encoding="utf-8")
        code, output = run(["validate", str(path)])
        assert code == 2
        assert "unreadable" in output

    def test_invalid_network(self, tmp_path):
        import json

        from repro.semnet.io import FORMAT_NAME

        document = {
            "format": FORMAT_NAME, "version": 1, "name": "bad",
            "concepts": [
                {"id": "a", "words": ["x"], "gloss": "g"},
                {"id": "b", "words": ["y"], "gloss": "g"},
            ],
            "relations": [
                {"source": "a", "relation": "hypernym", "target": "b"},
                {"source": "b", "relation": "hypernym", "target": "a"},
            ],
        }
        path = tmp_path / "cyclic.json"
        path.write_text(json.dumps(document), encoding="utf-8")
        code, output = run(["validate", str(path)])
        assert code == 1
        assert "isa-cycle" in output


class TestUnreadableNetwork:
    """A missing or malformed network file is one line, not a
    traceback."""

    @pytest.mark.parametrize("argv, expected_code, message", [
        (["batch", "doc.xml", "--network", "missing.json"], 1,
         "cannot read network missing.json: "),
        (["validate", "missing.json"], 2,
         "cannot read network missing.json: "),
        (["batch", "doc.xml", "--network", "malformed.json"], 1,
         "unreadable network: not a"),
        (["serve", "--port", "0", "--network", "missing.json"], 1,
         "cannot read network missing.json: "),
        (["serve", "--port", "0", "--network", "malformed.json"], 1,
         "unreadable network: not a"),
        (["batch", "doc.xml", "--network", "int-id.json"], 1,
         "unreadable network: bad concept"),
        (["batch", "doc.xml", "--network", "int-gloss.json"], 1,
         "unreadable network: bad concept"),
        (["batch", "doc.xml", "--network", "negative-frequency.json"], 1,
         "unreadable network: bad concept"),
    ], ids=[
        "batch-missing", "validate-missing",
        "batch-malformed", "serve-missing", "serve-malformed",
        "batch-int-id", "batch-int-gloss", "batch-negative-frequency",
    ])
    def test_reported_without_traceback(
        self, tmp_path, monkeypatch, xml_file, argv, expected_code, message
    ):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "malformed.json").write_text('{"format": "x"}')
        # A concept field of the wrong type or range would otherwise
        # load and fail later with a traceback (fingerprint, index
        # build, IC).
        for name, bad in (
            ("int-id", {"id": 7}),
            ("int-gloss", {"gloss": 7}),
            ("negative-frequency", {"frequency": -3}),
        ):
            (tmp_path / f"{name}.json").write_text(json.dumps({
                "format": "repro-semnet", "version": 1, "relations": [],
                "concepts": [
                    {"id": "star.n.01", "words": ["star"], "gloss": "a sun"},
                    {"id": "actor.n.01", "words": ["actor"],
                     "gloss": "a player", **bad},
                ],
            }))
        try:
            code, output = run(argv)
        except SystemExit as exc:
            # A string SystemExit prints the message and exits 1.
            code, output = 1, str(exc.code)
        assert code == expected_code
        assert output.startswith(message)
        assert "\n" not in output.rstrip("\n")


class TestDocumentFiles:
    """Real files on the single-document commands: a malformed document
    is one located line, and a UTF-8 byte-order mark is no fault."""

    @pytest.mark.parametrize("command", [
        ["disambiguate", "broken.xml"],
        ["audit", "broken.xml"],
        ["match", "good.xml", "broken.xml"],
    ], ids=lambda argv: argv[0])
    def test_malformed_document_is_one_line(
        self, tmp_path, monkeypatch, figure1_xml, command
    ):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "good.xml").write_text(figure1_xml, encoding="utf-8")
        (tmp_path / "broken.xml").write_text(
            "<films><picture>\n</films>", encoding="utf-8"
        )
        # Latin-1, not UTF-8: the byte 0xE9 reaches the parser as a
        # lone surrogate.
        (tmp_path / "latin1.xml").write_bytes(b"<films>caf\xe9</films>")
        for bad, message in (
            ("broken.xml",
             "XMLSyntaxError: mismatched tag (line 2, column 3)"),
            ("latin1.xml",
             "XMLSyntaxError: character '\\udce9' cannot be encoded as "
             "UTF-8 (line 1, column 11)"),
        ):
            argv = [bad if arg == "broken.xml" else arg for arg in command]
            with pytest.raises(SystemExit) as excinfo:
                run(argv)
            # A string SystemExit prints the message to stderr and exits 1.
            assert excinfo.value.code == message

    def test_byte_order_mark_file_disambiguates(self, tmp_path, figure1_xml):
        plain = tmp_path / "plain.xml"
        marked = tmp_path / "marked.xml"
        plain.write_text(figure1_xml, encoding="utf-8")
        marked.write_text(figure1_xml, encoding="utf-8-sig")
        assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
        assert run(["disambiguate", str(marked)]) == run(
            ["disambiguate", str(plain)]
        )
        code, output = run([
            "batch", str(marked), str(plain),
            "--out", str(tmp_path / "out.jsonl"),
        ])
        assert code == 0 and "2 documents, 0 failed" in output
        marked_record, plain_record = [
            json.loads(line) for line in
            (tmp_path / "out.jsonl").read_text(encoding="utf-8").splitlines()
        ]
        assert marked_record["result"] == plain_record["result"]


class TestBatchResilience:
    """xmltree recovery end to end: one malformed document fails alone,
    as one more line of the one JSONL, while the survivors' lines stay
    byte-identical to a clean run."""

    def _write_corpus(self, tmp_path, figure1_xml):
        for i in range(2):
            (tmp_path / f"good-{i}.xml").write_text(
                figure1_xml, encoding="utf-8"
            )
        (tmp_path / "broken.xml").write_text(
            "<unclosed><tag>", encoding="utf-8"
        )

    def _clean_lines(self, tmp_path, figure1_xml):
        clean_dir = tmp_path / "clean"
        clean_dir.mkdir()
        for i in range(2):
            (clean_dir / f"good-{i}.xml").write_text(
                figure1_xml, encoding="utf-8"
            )
        out_path = tmp_path / "clean.jsonl"
        code, _ = run([
            "batch", str(clean_dir / "*.xml"), "--out", str(out_path),
        ])
        assert code == 0
        lines = out_path.read_text().splitlines()
        # Survivor comparisons key on the basename-invariant payload.
        return [line.replace(str(clean_dir), str(tmp_path)) for line in lines]

    def test_on_error_skip_isolates_the_parse_failure(
        self, tmp_path, figure1_xml
    ):
        self._write_corpus(tmp_path, figure1_xml)
        out_path = tmp_path / "results.jsonl"
        code, output = run([
            "batch", str(tmp_path / "good-*.xml"), str(tmp_path / "broken.xml"),
            "--out", str(out_path),
        ])
        assert code == 1
        assert "1 failed" in output
        assert "FAILED" in output and "stage=parse" in output
        lines = out_path.read_text().splitlines()
        # One line per input document, the failure included, in order.
        assert [json.loads(line)["name"] for line in lines] == [
            str(tmp_path / name)
            for name in ("good-0.xml", "good-1.xml", "broken.xml")
        ]
        assert self._clean_lines(tmp_path, figure1_xml) == [
            line for line in lines if '"ok": true' in line
        ]

    @pytest.mark.parametrize("journal", [False, True],
                             ids=["plain", "journal"])
    def test_non_utf8_file_fails_alone_at_stage_parse(
        self, tmp_path, figure1_xml, journal
    ):
        (tmp_path / "good-0.xml").write_text(figure1_xml, encoding="utf-8")
        (tmp_path / "latin1.xml").write_bytes(b"<films>caf\xe9</films>")
        out_path = tmp_path / "results.jsonl"
        argv = [
            "batch", str(tmp_path / "good-0.xml"),
            str(tmp_path / "latin1.xml"),
            "--out", str(out_path),
        ]
        if journal:
            argv += ["--journal", str(tmp_path / "run.rxjf")]
        code, output = run(argv)
        assert code == 1
        assert "2 documents, 1 failed" in output
        (failed,) = [line for line in output.splitlines() if "FAILED" in line]
        assert "latin1.xml" in failed and "stage=parse" in failed
        good, bad = out_path.read_text().splitlines()
        assert good == self._clean_lines(tmp_path, figure1_xml)[0]
        assert '"ok": false' in bad and "latin1.xml" in bad

    def test_resilience_flags_are_validated(self, tmp_path, figure1_xml):
        (tmp_path / "doc.xml").write_text(figure1_xml, encoding="utf-8")
        with pytest.raises(SystemExit, match="workers must be >= 1"):
            run([
                "batch", str(tmp_path / "doc.xml"),
                "--workers", "0",
            ])
        # One output policy, the memo always on, the chunk size always
        # picked by the executor: the removed flags are usage errors.
        for removed in (["--on-error", "skip"], ["--quarantine", "x"],
                        ["--no-memo"], ["--chunk-size", "2"], ["--profile"],
                        ["--metrics", "m.json"]):
            with pytest.raises(SystemExit) as excinfo:
                run(["batch", str(tmp_path / "doc.xml"), *removed])
            assert excinfo.value.code == 2  # argparse's usage error

    def test_metrics_json_carries_resilience_counters(
        self, tmp_path, figure1_xml
    ):
        import json

        self._write_corpus(tmp_path, figure1_xml)
        metrics_path = tmp_path / "metrics.json"
        out_path = tmp_path / "results.jsonl"
        code, _ = run([
            "batch", str(tmp_path / "*.xml"),
            "--out", str(out_path), "--metrics-json", str(metrics_path),
        ])
        assert code == 1
        report = json.loads(metrics_path.read_text())
        assert report["counters"]["outcome_failed"] == 1
        assert report["counters"]["outcome_ok"] == 2
        events = [e for e in report["events"] if e["event"] == "doc_failed"]
        assert len(events) == 1
        assert events[0]["stage"] == "parse"


class TestJournalResume:
    """``--journal`` / ``--resume`` through the real entry point: the
    journal skips completed documents on resume and the merged output
    stays byte-identical to the uninterrupted run."""

    def _corpus(self, tmp_path, figure1_xml, n=3):
        for i in range(n):
            (tmp_path / f"doc-{i}.xml").write_text(
                figure1_xml, encoding="utf-8"
            )
        return str(tmp_path / "doc-*.xml")

    def test_resume_replays_everything_byte_identically(
        self, tmp_path, figure1_xml
    ):
        pattern = self._corpus(tmp_path, figure1_xml)
        journal = tmp_path / "batch.rxjf"
        first_out = tmp_path / "first.jsonl"
        code, output = run([
            "batch", pattern, "--out", str(first_out),
            "--journal", str(journal),
        ])
        assert code == 0
        assert "journal replayed=0 scored=3" in output
        assert journal.exists()
        resumed_out = tmp_path / "resumed.jsonl"
        code, output = run([
            "batch", pattern, "--out", str(resumed_out),
            "--journal", str(journal), "--resume",
        ])
        assert code == 0
        assert "journal replayed=3 scored=0" in output
        assert resumed_out.read_bytes() == first_out.read_bytes()

    def test_edited_document_is_rescored_not_replayed(
        self, tmp_path, figure1_xml
    ):
        # The journal keys on (name, sha256(xml)): rewriting one
        # document invalidates only its own entry.
        pattern = self._corpus(tmp_path, figure1_xml)
        journal = tmp_path / "batch.rxjf"
        out_path = tmp_path / "results.jsonl"
        code, _ = run([
            "batch", pattern, "--out", str(out_path),
            "--journal", str(journal),
        ])
        assert code == 0
        (tmp_path / "doc-1.xml").write_text(
            figure1_xml.replace("?>", "?>\n<!-- edited -->", 1),
            encoding="utf-8",
        )
        code, output = run([
            "batch", pattern, "--out", str(out_path),
            "--journal", str(journal), "--resume",
        ])
        assert code == 0
        assert "journal replayed=2 scored=1" in output
        assert len(out_path.read_text().splitlines()) == 3

    def test_resume_without_journal_is_refused(self, tmp_path, figure1_xml):
        pattern = self._corpus(tmp_path, figure1_xml, n=1)
        with pytest.raises(SystemExit, match="requires --journal"):
            run(["batch", pattern, "--resume"])

    def test_resume_refuses_a_foreign_journal(self, tmp_path, figure1_xml):
        from repro.runtime.journal import JournalWriter

        pattern = self._corpus(tmp_path, figure1_xml, n=1)
        journal = tmp_path / "foreign.rxjf"
        JournalWriter(
            journal, meta={"config": "someone-else", "network": "elsewhere"}
        ).close()
        with pytest.raises(SystemExit, match="different configuration"):
            run([
                "batch", pattern, "--journal", str(journal), "--resume",
            ])

    def test_resume_refuses_a_journal_of_the_other_prune_setting(
        self, tmp_path, figure1_xml
    ):
        # Pruning drops provably-losing candidates from each node's
        # scores, so pruned and exhaustive records must not mix.
        pattern = self._corpus(tmp_path, figure1_xml, n=2)
        journal = tmp_path / "batch.rxjf"
        code, _ = run([
            "batch", pattern, "--out", str(tmp_path / "first.jsonl"),
            "--journal", str(journal), "--no-prune",
        ])
        assert code == 0
        resumed = ["batch", pattern, "--out", str(tmp_path / "r.jsonl"),
                   "--journal", str(journal), "--resume"]
        with pytest.raises(SystemExit, match="different configuration"):
            run(resumed)
        code, output = run(resumed + ["--no-prune"])
        assert code == 0
        assert "journal replayed=2 scored=0" in output

    def test_resume_builds_outcomes_a_journal_lacks(
        self, tmp_path, figure1_xml
    ):
        """A journal is outside input: entries without an ``outcome``
        still replay byte-identically, and a failed one still gets its
        ``FAILED`` line."""
        from repro.runtime.journal import _encode_frame

        pattern = self._corpus(tmp_path, figure1_xml, n=2)
        (tmp_path / "doc-2.xml").write_text("<oops>", encoding="utf-8")
        journal = tmp_path / "batch.rxjf"
        first_out = tmp_path / "first.jsonl"
        argv = ["batch", pattern, "--journal", str(journal)]
        code, _ = run(argv + ["--out", str(first_out)])
        assert code == 1
        replay = read_journal(journal)
        frames = [replay.meta] + [
            {key: value for key, value in entry.items() if key != "outcome"}
            for entry in replay.entries
        ]
        journal.write_bytes(b"".join(_encode_frame(f) for f in frames))
        resumed_out = tmp_path / "resumed.jsonl"
        code, output = run(argv + ["--out", str(resumed_out), "--resume"])
        assert code == 1
        assert "journal replayed=3 scored=0" in output
        assert "doc-2.xml: XMLSyntaxError" in output
        assert "[stage=pipeline, attempts=1]" in output
        assert resumed_out.read_bytes() == first_out.read_bytes()

    def test_fully_replayed_resume_builds_no_index(
        self, tmp_path, figure1_xml, monkeypatch
    ):
        from repro.runtime.pack import PackedIndex

        pattern = self._corpus(tmp_path, figure1_xml)
        journal = tmp_path / "batch.rxjf"
        first_out = tmp_path / "first.jsonl"
        code, _ = run([
            "batch", pattern, "--out", str(first_out),
            "--journal", str(journal),
        ])
        assert code == 0

        def no_build(self, network):
            raise AssertionError("a fully replayed batch built an index")

        monkeypatch.setattr(PackedIndex, "__init__", no_build)
        resumed_out = tmp_path / "resumed.jsonl"
        code, output = run([
            "batch", pattern, "--out", str(resumed_out),
            "--journal", str(journal), "--resume",
        ])
        assert code == 0
        assert "journal replayed=3 scored=0" in output
        assert "index=" not in output
        assert resumed_out.read_bytes() == first_out.read_bytes()

    def test_ctrl_c_writes_completed_lines_then_resume_finishes(
        self, tmp_path, figure1_xml, monkeypatch
    ):
        """Ctrl-C on the third of five documents: exit 130, the two
        completed lines in input order, the journal flushed; ``--resume``
        then replays 2, scores 3 and writes the uninterrupted bytes."""
        from repro.runtime import executor as executor_module

        pattern = self._corpus(tmp_path, figure1_xml, n=5)
        whole_out = tmp_path / "whole.jsonl"
        assert run(["batch", pattern, "--out", str(whole_out)])[0] == 0
        whole = whole_out.read_text().splitlines()

        real = executor_module._disambiguate_one
        calls = []

        def interrupt_third(*args):
            calls.append(args[1])
            if len(calls) == 3:
                raise KeyboardInterrupt
            return real(*args)

        monkeypatch.setattr(executor_module, "_disambiguate_one",
                            interrupt_third)
        journal = tmp_path / "batch.rxjf"
        out_path = tmp_path / "partial.jsonl"
        argv = ["batch", pattern, "--out", str(out_path),
                "--journal", str(journal)]
        code, output = run(argv)
        assert code == 130
        assert "interrupted: wrote 2/5 records" in output
        assert "journal replayed=0 scored=2" in output
        assert out_path.read_text().splitlines() == whole[:2]
        assert len(read_journal(journal).entries) == 2

        monkeypatch.setattr(executor_module, "_disambiguate_one", real)
        code, output = run(argv + ["--resume"])
        assert code == 0
        assert "journal replayed=2 scored=3" in output
        assert out_path.read_text().splitlines() == whole


class TestPackAndStore:
    def _pack_lexicon(self, tmp_path, lexicon):
        """Bundled-lexicon shard + network JSON, written via the CLI."""
        from repro.semnet.io import save_network

        shard = tmp_path / "lexicon.rxpd"
        network_json = tmp_path / "lexicon.network.json"
        save_network(lexicon, str(network_json))
        # Pack from the JSON file so the shard's tables were built from
        # the exact network the batch runs will load (float summation
        # order differs between a constructed network and its JSON
        # round-trip, so cross-source comparisons are not bit-exact).
        code, output = run([
            "pack", str(shard), "--network", str(network_json), "--verify",
        ])
        assert code == 0
        return shard, network_json, output

    def test_pack_writes_and_verifies_a_shard(self, tmp_path, lexicon):
        shard, _, output = self._pack_lexicon(tmp_path, lexicon)
        assert shard.is_file()
        assert f"packed {len(lexicon)} concepts" in output
        assert "verified: body CRC ok" in output

    def test_pack_synthetic_network(self, tmp_path):
        shard = tmp_path / "synth.rxpd"
        code, output = run([
            "pack", str(shard), "--synthetic", "150", "--seed", "9",
        ])
        assert code == 0
        assert "packed 150 concepts" in output

    def test_pack_rejects_conflicting_sources(self, tmp_path):
        with pytest.raises(SystemExit):
            run(["pack", str(tmp_path / "x.rxpd"),
                 "--network", "a.json", "--synthetic", "10"])

    def test_batch_shard_matches_plain_batch(
        self, tmp_path, lexicon, xml_file
    ):
        shard, network_json, _ = self._pack_lexicon(tmp_path, lexicon)
        plain_out = tmp_path / "plain.jsonl"
        shard_out = tmp_path / "shard.jsonl"
        code, _ = run([
            "batch", xml_file, "--out", str(plain_out),
            "--network", str(network_json),
        ])
        assert code == 0
        code, _ = run([
            "batch", xml_file, "--out", str(shard_out),
            "--network", str(network_json), "--shard", str(shard),
        ])
        assert code == 0
        assert shard_out.read_bytes() == plain_out.read_bytes()

    def test_batch_summary_reports_index_backing(
        self, tmp_path, lexicon, xml_file
    ):
        shard, network_json, _ = self._pack_lexicon(tmp_path, lexicon)
        code, output = run([
            "batch", xml_file, "--out", str(tmp_path / "r.jsonl"),
            "--network", str(network_json), "--shard", str(shard),
        ])
        assert code == 0
        assert "index=mmap" in output
        code, output = run([
            "batch", xml_file, "--out", str(tmp_path / "r2.jsonl"),
        ])
        assert code == 0
        assert "index=heap" in output

    def test_batch_flag_conflicts_exit_cleanly(self, tmp_path, xml_file):
        for argv in (
            ["batch", xml_file, "--shard", "s.rxpd"],
            ["batch", xml_file, "--shard", "s.rxpd", "--network", "n.json",
             "--no-index"],
        ):
            with pytest.raises(SystemExit):
                run(argv)

    def _bad_shards(self, tmp_path, lexicon):
        """(network JSON, shards that must not attach over it)."""
        from repro.runtime import PackedIndex, write_shard
        from repro.semnet.generator import GeneratorConfig, generate_network

        shard, network_json, _ = self._pack_lexicon(tmp_path, lexicon)
        other = generate_network(GeneratorConfig(n_concepts=50, seed=3))
        stale = tmp_path / "stale.rxpd"
        write_shard(
            PackedIndex(other), str(stale), fingerprint=other.fingerprint()
        )
        # Another network's tables with no fingerprint stamp: nothing
        # ties them to the network they would be attached over.
        unstamped = tmp_path / "unstamped.rxpd"
        write_shard(PackedIndex(other), str(unstamped))
        # One id-table byte set to 0xFF: undecodable, caught by the CRC.
        payload = bytearray(shard.read_bytes())
        (meta_len,) = struct.unpack_from("<I", payload, 32)
        payload[32 + 8 + ((meta_len + 7) & ~7) + 8] = 0xFF
        rotted = tmp_path / "rotted.rxpd"
        rotted.write_bytes(payload)
        # The last body byte flipped: the shard still attaches and
        # decodes, so only the body CRC can tell.
        payload = bytearray(shard.read_bytes())
        payload[-1] ^= 0xFF
        flipped = tmp_path / "flipped.rxpd"
        flipped.write_bytes(payload)
        PackedIndex.from_mmap(str(flipped))
        return network_json, [stale, unstamped, rotted, flipped]

    def test_batch_stale_shard_fails_loudly(self, tmp_path, lexicon, xml_file):
        network_json, bad_shards = self._bad_shards(tmp_path, lexicon)
        for shard in bad_shards:
            with pytest.raises(SystemExit, match=re.escape(
                f"cannot attach shard {shard}: "
            )):
                run([
                    "batch", xml_file, "--out", str(tmp_path / "r.jsonl"),
                    "--network", str(network_json), "--shard", str(shard),
                ])

    def test_serve_bad_shard_fails_before_listening(self, tmp_path, lexicon):
        network_json, bad_shards = self._bad_shards(tmp_path, lexicon)
        for shard in [tmp_path / "missing.rxpd", *bad_shards]:
            with pytest.raises(SystemExit, match=re.escape(
                f"cannot attach shard {shard}: "
            )):
                run([
                    "serve", "--port", "0",
                    "--network", str(network_json), "--shard", str(shard),
                ])
