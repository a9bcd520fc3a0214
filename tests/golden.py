"""The golden digest of the 60-document Table 3 corpus.

One sha256 over the annotations every surface must reproduce: the
``DisambiguationResult.to_dict()`` of each document of
``generate_test_corpus()``, in corpus order, rendered as one sorted-key
JSON line each (the shape of a ``repro batch`` record's ``result``).
The corpus is scored under the paper-default ``XSDFConfig()`` against
the bundled lexicon after a ``save_network`` -> ``load_network`` round
trip, the network a ``--shard`` run must load to match its shard.

A scoring change that moves any score, chosen sense, pruned table or
ambiguity degree by one bit moves this digest; replace the constant
only together with a documented change of the paper's definitions.
The scores sum their floats left to right in explicit loops, never
with ``sum()`` (compensated since CPython 3.12), so every supported
interpreter reproduces the one digest.
"""

from __future__ import annotations

import hashlib
import json
from typing import Iterable

GOLDEN_ANNOTATIONS_SHA256 = (
    "d1ecdc0d31f83d93ffee2abca743a1f00d01b0b72ca6a488942d68bca719977a"
)


def annotations_digest(results: Iterable[dict]) -> str:
    """sha256 over per-document result dicts, one JSON line each."""
    digest = hashlib.sha256()
    for result in results:
        line = json.dumps(result, sort_keys=True) + "\n"
        digest.update(line.encode("utf-8"))
    return digest.hexdigest()
