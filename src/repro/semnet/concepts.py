"""Concepts and semantic relations (paper Definition 2).

A semantic network ``SN = (C, L, G, E, R, f, g)`` is made of concept
nodes (synsets) carrying a label, a set of synonymous words, and a gloss,
connected by typed semantic relations (IS-A, HAS-A, PART-OF, ...).

This module defines the value types; the graph itself lives in
:mod:`repro.semnet.network`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class Relation(enum.Enum):
    """Semantic relation types, mirroring WordNet's noun relations."""

    HYPERNYM = "hypernym"              # is-a (specific -> general)
    HYPONYM = "hyponym"                # inverse of hypernym
    PART_MERONYM = "part_meronym"      # has-part (whole -> part)
    PART_HOLONYM = "part_holonym"      # part-of (part -> whole)
    MEMBER_MERONYM = "member_meronym"  # has-member
    MEMBER_HOLONYM = "member_holonym"  # member-of
    ATTRIBUTE = "attribute"            # symmetric attribute link
    SIMILAR = "similar"                # symmetric similarity link
    DERIVATION = "derivation"          # derivationally related forms

    # Members are singletons compared by identity, so identity hashing
    # agrees with equality; ``Enum.__hash__`` is a Python-level call,
    # paid on every edge-map access (about 330k while a 100k-concept
    # network loads).
    __hash__ = object.__hash__

    @property
    def inverse(self) -> "Relation":
        """The relation read in the opposite direction."""
        return _INVERSES[self]

    @property
    def is_taxonomic(self) -> bool:
        """True for the IS-A backbone used by edge-based similarity."""
        return self in (Relation.HYPERNYM, Relation.HYPONYM)


_INVERSES = {
    Relation.HYPERNYM: Relation.HYPONYM,
    Relation.HYPONYM: Relation.HYPERNYM,
    Relation.PART_MERONYM: Relation.PART_HOLONYM,
    Relation.PART_HOLONYM: Relation.PART_MERONYM,
    Relation.MEMBER_MERONYM: Relation.MEMBER_HOLONYM,
    Relation.MEMBER_HOLONYM: Relation.MEMBER_MERONYM,
    Relation.ATTRIBUTE: Relation.ATTRIBUTE,
    Relation.SIMILAR: Relation.SIMILAR,
    Relation.DERIVATION: Relation.DERIVATION,
}


@dataclass
class Concept:
    """One concept node (synset).

    Attributes
    ----------
    id:
        Stable unique identifier, conventionally ``lemma.pos.NN``
        (e.g. ``star.n.02``).
    words:
        Synonymous words/expressions designating this sense.  Multiword
        expressions use spaces (``first name``).  The first word is the
        concept's *label* (``c.l`` in the paper).
    gloss:
        Textual definition (``c.gloss``).
    pos:
        Part of speech tag, ``n``/``v``/``a``; the paper's corpora are
        noun-dominated so ``n`` is the default.
    frequency:
        Corpus occurrence count for the weighted network ``SN-bar``
        (used by node-based similarity measures).  Zero until a corpus
        is applied.
    """

    id: str
    words: tuple[str, ...]
    gloss: str
    pos: str = "n"
    frequency: float = 0.0

    def __post_init__(self) -> None:
        if not self.words:
            raise ValueError(f"concept {self.id!r} must have at least one word")
        # A word already in lower case is kept, not copied, so a
        # loader that maps repeated words to one string keeps one.
        self.words = tuple([
            word if word.islower() or (lowered := word.lower()) == word
            else lowered
            for word in self.words
        ])

    @property
    def label(self) -> str:
        """The concept label ``c.l`` — its first (preferred) word."""
        return self.words[0]

    @property
    def synonyms(self) -> tuple[str, ...]:
        """All synonymous words (``c.syn``), including the label."""
        return self.words

    def gloss_tokens(self) -> list[str]:
        """Stemmed content-word tokens of the gloss (for Lesk overlap).

        Stemming matters: glosses say "the lines spoken by an actor"
        while labels say "line" — without conflation the overlap measure
        misses exactly the matches it exists to find.
        """
        from ..linguistics.stemmer import stem
        from ..linguistics.stopwords import STOP_WORDS
        from ..linguistics.tokenizer import split_text_value

        return [
            stem(t) for t in split_text_value(self.gloss) if t not in STOP_WORDS
        ]

    def __hash__(self) -> int:
        return hash(self.id)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Concept({self.id!r})"


@dataclass(frozen=True)
class Edge:
    """A typed, directed edge between two concepts."""

    source: str
    target: str
    relation: Relation

    @property
    def inverse(self) -> "Edge":
        """The same edge seen from the other endpoint."""
        return Edge(self.target, self.source, self.relation.inverse)
