"""Golden-file tests: reporter output is byte-stable.

Every reporter's exact output for a fixed finding list is checked
against a file in ``tests/devtools/golden/`` — CI artifact diffs and
editor integrations both depend on the formats not drifting silently.
To regenerate after an *intentional* format change::

    REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest \\
        tests/devtools/test_golden_reports.py

then review the golden diff like any other contract change.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.devtools import Finding
from repro.devtools.reporters import render_json, render_text

GOLDEN = Path(__file__).parent / "golden"

FINDINGS = [
    Finding(
        rule="broad-except",
        path="src/repro/core/framework.py",
        line=12,
        col=4,
        message="bare 'except:' swallows every error",
    ),
    Finding(
        rule="determinism",
        path="src/repro/semnet/network.py",
        line=3,
        col=0,
        message="loop iterates set-valued name 'pool' and accumulates",
    ),
    Finding(
        rule="determinism",
        path="src/repro/semnet/network.py",
        line=40,
        col=8,
        message="list() materializes the iteration order of 'ids'",
    ),
]

def _check(name: str, rendered: str) -> None:
    path = GOLDEN / name
    if os.environ.get("REGEN_GOLDEN"):
        path.parent.mkdir(exist_ok=True)
        path.write_text(rendered, encoding="utf-8")
        pytest.skip(f"regenerated {path}")
    assert rendered == path.read_text(encoding="utf-8")


class TestGoldenReports:
    def test_text_report(self):
        _check("findings.txt", render_text(FINDINGS))

    def test_text_report_empty(self):
        _check("empty.txt", render_text([]))

    def test_json_report(self):
        _check("findings.json", render_json(FINDINGS))

    def test_json_report_empty(self):
        _check("empty.json", render_json([]))
