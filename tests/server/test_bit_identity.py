"""Served records must be byte-identical to ``repro batch`` output.

This is the service's core contract: a daemon answer is always
reproducible by a batch run on the same input and configuration.  The
test runs the real CLI batch path over a small corpus, then serves the
same documents through a live server — cold caches first, then warm,
with the index built in process and then attached from an ``RXPD``
shard, and under the default configuration and a process started with
another one — and compares the NDJSON record line against the batch
JSONL line, byte for byte.
"""

from __future__ import annotations

import asyncio
import io
import json

from repro.cli import main
from repro.core.config import DisambiguationApproach, XSDFConfig
from repro.runtime import PackedIndex, write_shard

from .conftest import disambiguate, get, request, running

SECOND_XML = """<?xml version="1.0"?>
<library>
  <book>
    <title>bank</title>
    <author>Stewart</author>
    <subject>mystery</subject>
  </book>
</library>
"""


def batch_lines(tmp_path, documents, *flags):
    """``{name: jsonl_line}`` from a real ``repro batch [flags]`` run."""
    for name, xml in documents:
        (tmp_path / name).write_text(xml, encoding="utf-8")
    out = io.StringIO()
    code = main(["batch", str(tmp_path / "*.xml"), *flags], out=out)
    assert code == 0
    lines = {}
    for line in out.getvalue().splitlines():
        lines[json.loads(line)["name"]] = line.encode("utf-8")
    return lines


def serve_cold_then_warm(app, tmp_path, documents):
    """``(index backing, [(phase, name, record_line)])`` from a live ``app``."""

    async def go():
        served: list[tuple[str, str, bytes]] = []
        async with running(app) as server:
            health = (await request(server, get("/healthz"))).json()
            for phase in ("cold", "warm"):
                for name, xml in documents:
                    response = await request(server, disambiguate(
                        xml, name=str(tmp_path / name)
                    ))
                    assert response.status == 200
                    served.append(
                        (phase, name, response.body.split(b"\n")[-3])
                    )
        return health["index"]["backing"], served

    return asyncio.run(go())


def assert_served_match_batch(served, expected, tmp_path):
    for phase, name, record_line in served:
        assert record_line == expected[str(tmp_path / name)], (
            f"{name} diverged from the batch line under {phase} caches"
        )


def test_served_records_match_batch_cold_and_warm(
    make_app, tmp_path, figure1_xml
):
    documents = [("films.xml", figure1_xml), ("books.xml", SECOND_XML)]
    expected = batch_lines(tmp_path, documents)
    backing, served = serve_cold_then_warm(make_app(), tmp_path, documents)
    assert backing == "heap"
    assert_served_match_batch(served, expected, tmp_path)


def test_shard_backed_records_match_batch_cold_and_warm(
    make_app, tmp_path, figure1_xml, lexicon
):
    # The same tables attached from a shard must serve the same bytes.
    documents = [("films.xml", figure1_xml), ("books.xml", SECOND_XML)]
    expected = batch_lines(tmp_path, documents)
    shard = str(tmp_path / "lexicon.rxpd")
    write_shard(PackedIndex(lexicon), shard, fingerprint=lexicon.fingerprint())
    backing, served = serve_cold_then_warm(
        make_app(shard=shard), tmp_path, documents
    )
    assert backing == "mmap"
    assert_served_match_batch(served, expected, tmp_path)


def test_process_config_records_match_batch_flags_cold_and_warm(
    make_app, tmp_path, figure1_xml
):
    # Another configuration is another process: a server started with
    # it serves the bytes `repro batch` writes under the same flags.
    documents = [("films.xml", figure1_xml), ("books.xml", SECOND_XML)]
    expected = batch_lines(
        tmp_path, documents,
        "--radius", "1", "--approach", "concept", "--structure-only",
    )
    assert expected != batch_lines(tmp_path, documents)
    config = XSDFConfig(
        sphere_radius=1,
        approach=DisambiguationApproach.CONCEPT_BASED,
        include_values=False,
    )
    backing, served = serve_cold_then_warm(
        make_app(config=config), tmp_path, documents
    )
    assert backing == "heap"
    assert_served_match_batch(served, expected, tmp_path)
