"""Finding reporters: human text and machine JSON.

Both render the same :class:`repro.devtools.engine.Finding` list; the
text form is for terminals (one ``path:line:col`` locator per line,
the conventional clickable format), the JSON form is for CI gates and
editors (stable keys, round-trips through ``json.loads``).  Both are
byte-stable for identical inputs so CI diffs stay meaningful.
"""

from __future__ import annotations

import json
from typing import Sequence

from .engine import Finding


def render_text(findings: Sequence[Finding]) -> str:
    """One ``path:line:col: [rule-id] message`` line per finding.

    Ends with a one-line summary; returns ``"clean"``-style summary
    text even for zero findings so the CLI always prints something
    actionable.
    """
    lines = [
        f"{finding.location()}: [{finding.rule}] {finding.message}"
        for finding in findings
    ]
    n = len(findings)
    if n == 0:
        lines.append("reprolint: clean (0 findings)")
    else:
        files = len({finding.path for finding in findings})
        lines.append(
            f"reprolint: {n} finding{'s' if n != 1 else ''} "
            f"in {files} file{'s' if files != 1 else ''}"
        )
    return "\n".join(lines) + "\n"


def render_json(findings: Sequence[Finding]) -> str:
    """The findings as a stable JSON document.

    Shape: ``{"count": int, "findings": [{rule, path, line, col,
    message}, ...]}`` with sorted keys — byte-stable for identical
    inputs, so CI diffs are meaningful.
    """
    payload = {
        "count": len(findings),
        "findings": [finding.to_dict() for finding in findings],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"
