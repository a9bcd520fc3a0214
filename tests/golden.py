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

CPython 3.12 made ``sum()`` of floats compensated (Neumaier), which
moves low-order bits of the scores, so each summation has its own
digest: the compensated one recorded on CPython 3.12 and 3.13, the
plain one on 3.11.
"""

from __future__ import annotations

import hashlib
import json
from typing import Iterable

_COMPENSATED_SUM = sum([1.0, 1e100, 1.0, -1e100]) == 2.0

GOLDEN_ANNOTATIONS_SHA256 = (
    "46c50b79273027563ec1776d1e716eb00e6a1d6999dce869f763ce531df396aa"
    if _COMPENSATED_SUM else
    "d1ecdc0d31f83d93ffee2abca743a1f00d01b0b72ca6a488942d68bca719977a"
)


def annotations_digest(results: Iterable[dict]) -> str:
    """sha256 over per-document result dicts, one JSON line each."""
    digest = hashlib.sha256()
    for result in results:
        line = json.dumps(result, sort_keys=True) + "\n"
        digest.update(line.encode("utf-8"))
    return digest.hexdigest()
