"""Semantic network persistence (JSON) and interchange.

The paper stresses that "any other knowledge base can be used" in place
of WordNet (ODP for web pages, FOAF for social networks, ...).  For
that to be practical, users need a way to ship their own networks; this
module defines a stable JSON document format plus load/save helpers.

Format (version 1)::

    {
      "format": "repro-semnet",
      "version": 1,
      "name": "my-network",
      "concepts": [
        {"id": "star.n.02", "words": ["star", "lead"],
         "gloss": "an actor ...", "pos": "n", "frequency": 30.0},
        ...
      ],
      "relations": [
        {"source": "star.n.02", "relation": "hypernym",
         "target": "actor.n.01"},
        ...
      ]
    }

Only the forward direction of each relation pair is stored (the network
adds inverses automatically); the saver canonicalizes so save→load→save
is byte-stable.
"""

from __future__ import annotations

import gc
import json
import threading
from pathlib import Path

from .concepts import Concept, Relation
from .network import SemanticNetwork

FORMAT_NAME = "repro-semnet"
FORMAT_VERSION = 1

#: The direction stored on disk for each inverse pair.
_CANONICAL_RELATIONS = frozenset(
    {
        Relation.HYPERNYM,
        Relation.PART_HOLONYM,
        Relation.MEMBER_HOLONYM,
        Relation.ATTRIBUTE,
        Relation.SIMILAR,
        Relation.DERIVATION,
    }
)


class NetworkFormatError(ValueError):
    """Raised when a network document is malformed."""


def network_to_dict(network: SemanticNetwork) -> dict:
    """Serialize a network to the JSON-ready document structure."""
    concepts = [
        {
            "id": concept.id,
            "words": list(concept.words),
            "gloss": concept.gloss,
            "pos": concept.pos,
            # Always a float: builder declarations may use ints, and
            # 4 vs 4.0 would break byte-stable canonical output.
            "frequency": float(concept.frequency),
        }
        for concept in network
    ]
    relations = []
    seen: set[tuple[str, str, str]] = set()
    for edge in network.edges():
        relation = edge.relation
        source, target = edge.source, edge.target
        if relation not in _CANONICAL_RELATIONS:
            relation = relation.inverse
            source, target = target, source
        # Symmetric relations appear in both directions; canonicalize
        # by id order so save -> load -> save is byte-stable.
        if relation.inverse is relation and target < source:
            source, target = target, source
        key = (source, relation.value, target)
        if key in seen:
            continue
        seen.add(key)
        relations.append(
            {"source": source, "relation": relation.value, "target": target}
        )
    relations.sort(key=lambda r: (r["source"], r["relation"], r["target"]))
    return {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "name": network.name,
        "concepts": concepts,
        "relations": relations,
    }


def network_from_dict(document: dict) -> SemanticNetwork:
    """Deserialize a network document; validates structure.

    Every malformed document raises :class:`NetworkFormatError`: a top
    level that is not an object, ``concepts``/``relations`` that are
    not lists, a concept whose ``words`` is not a non-empty list of
    strings, a duplicate concept id, and a relation entry that is not
    an object naming a known relation between two known concepts.
    """
    if not isinstance(document, dict):
        raise NetworkFormatError(
            f"not a {FORMAT_NAME} document "
            f"(top level is {type(document).__name__})"
        )
    if document.get("format") != FORMAT_NAME:
        raise NetworkFormatError(
            f"not a {FORMAT_NAME} document (format={document.get('format')!r})"
        )
    if document.get("version") != FORMAT_VERSION:
        raise NetworkFormatError(
            f"unsupported version {document.get('version')!r}"
        )
    concepts = document.get("concepts", [])
    relations = document.get("relations", [])
    if not isinstance(concepts, list) or not isinstance(relations, list):
        raise NetworkFormatError("'concepts' and 'relations' must be lists")
    network = SemanticNetwork(document.get("name", "semnet"))
    relation_values = {relation.value: relation for relation in Relation}
    for entry in concepts:
        try:
            words = entry["words"]
            if not isinstance(words, list) or not words or not all(
                isinstance(word, str) for word in words
            ):
                raise TypeError("words must be a non-empty list of strings")
            network.add_concept(Concept(
                id=entry["id"],
                words=tuple(words),
                gloss=entry.get("gloss", ""),
                pos=entry.get("pos", "n"),
                frequency=float(entry.get("frequency", 0.0)),
            ))
        except (KeyError, TypeError, ValueError) as exc:
            raise NetworkFormatError(f"bad concept entry {entry!r}: {exc}")
    for entry in relations:
        try:
            relation = relation_values[entry["relation"]]
            network.add_relation(entry["source"], relation, entry["target"])
        except (KeyError, TypeError) as exc:
            raise NetworkFormatError(f"bad relation entry {entry!r}: {exc}")
    return network


def save_network(network: SemanticNetwork, path: str | Path) -> None:
    """Write ``network`` to ``path`` as formatted JSON."""
    document = network_to_dict(network)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1, sort_keys=False)
        handle.write("\n")


#: Serializes loads so that callers on different threads cannot
#: interleave their save and restore of the collector's enabled state.
_LOAD_LOCK = threading.Lock()


def load_network(path: str | Path) -> SemanticNetwork:
    """Read a network from a JSON file written by :func:`save_network`.

    Collector contract: the cyclic garbage collector is disabled while
    the file is parsed and the network is built, and the caller's
    ``gc.isenabled()`` is restored on every exit, errors included.
    Everything the load leaves alive then moves straight to the oldest
    generation (``gc.freeze(); gc.unfreeze()``, which splices lists and
    traverses nothing), so no young-generation pass walks the network.
    A 100k-concept network is about 515k tracked objects that all live
    as long as the network: a collection over them frees nothing.
    When ``gc.get_freeze_count()`` is already non-zero the move is
    skipped, so a caller's freeze is never undone.

    Raises :class:`NetworkFormatError` for a file that is not UTF-8
    JSON or not a valid network document, and ``OSError`` when the
    file cannot be read.
    """
    with _LOAD_LOCK:
        enabled = gc.isenabled()
        gc.disable()
        try:
            network = network_from_dict(_read_document(path))
            if not gc.get_freeze_count():
                gc.freeze()
                gc.unfreeze()
            return network
        finally:
            if enabled:
                gc.enable()


def _read_document(path: str | Path) -> object:
    with open(path, encoding="utf-8") as handle:
        try:
            return json.load(handle)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise NetworkFormatError(f"invalid JSON in {path}: {exc}")
