"""The semantic network graph (paper Definition 2).

:class:`SemanticNetwork` stores concepts and typed relations and provides
every query the disambiguation framework needs:

* sense inventory lookups (``senses(word)``, ``has_word``, polysemy);
* taxonomic queries for edge/node-based similarity (hypernym closures,
  depths, lowest common subsumer);
* breadth-first *rings* and *spheres* over all semantic relations, the
  SN-side counterpart of the paper's XML sphere neighborhood
  (Section 3.5.2);
* corpus frequencies and cumulative frequencies for the weighted
  network ``SN-bar`` used by information-content measures.

Adding an edge automatically adds its inverse, so traversals never need
to special-case direction.
"""

from __future__ import annotations

import hashlib
from collections import deque
from typing import Iterable, Iterator

from .concepts import Concept, Edge, Relation


class UnknownConceptError(KeyError):
    """Raised when a concept id is not present in the network."""


class SemanticNetwork:
    """A mutable semantic network; freeze-free but caches are invalidated
    on mutation, so build fully before heavy querying for best speed."""

    def __init__(self, name: str = "semnet"):
        self.name = name
        self._concepts: dict[str, Concept] = {}
        self._by_word: dict[str, list[str]] = {}
        self._edges: dict[str, dict[Relation, list[str]]] = {}
        self._max_polysemy: int | None = None
        self._depth_cache: dict[str, int] = {}
        self._cumfreq_cache: dict[str, float] | None = None
        self._fingerprint: str | None = None

    # -- construction -------------------------------------------------------

    def add_concept(self, concept: Concept) -> Concept:
        """Register a concept; ids must be unique."""
        if concept.id in self._concepts:
            raise ValueError(f"duplicate concept id {concept.id!r}")
        self._concepts[concept.id] = concept
        for word in concept.words:
            self._by_word.setdefault(word, []).append(concept.id)
        self._edges.setdefault(concept.id, {})
        self._invalidate()
        return concept

    def add_relation(self, source: str, relation: Relation, target: str) -> None:
        """Add ``source --relation--> target`` plus the inverse edge."""
        if source not in self._concepts:
            raise UnknownConceptError(source)
        if target not in self._concepts:
            raise UnknownConceptError(target)
        self._add_directed(source, relation, target)
        self._add_directed(target, relation.inverse, source)
        self._invalidate()

    def _add_directed(self, source: str, relation: Relation, target: str) -> None:
        targets = self._edges.setdefault(source, {}).setdefault(relation, [])
        if target not in targets:
            targets.append(target)

    def _invalidate(self) -> None:
        self._max_polysemy = None
        self._depth_cache.clear()
        self._cumfreq_cache = None
        self._fingerprint = None

    # -- basic lookups ------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._concepts)

    def __contains__(self, concept_id: str) -> bool:
        return concept_id in self._concepts

    def __iter__(self) -> Iterator[Concept]:
        return iter(self._concepts.values())

    def concept(self, concept_id: str) -> Concept:
        """The concept with this id; raises :class:`UnknownConceptError`."""
        try:
            return self._concepts[concept_id]
        except KeyError:
            raise UnknownConceptError(concept_id) from None

    def concepts(self) -> list[Concept]:
        """All concepts (insertion order)."""
        return list(self._concepts.values())

    def words(self) -> list[str]:
        """Every distinct word/expression in the network."""
        return list(self._by_word)

    def has_word(self, word: str) -> bool:
        """True when some concept lists ``word`` among its synonyms."""
        return word.lower() in self._by_word

    def senses(self, word: str) -> list[Concept]:
        """All senses of ``word``, in sense-rank (registration) order."""
        return [self._concepts[cid] for cid in self._by_word.get(word.lower(), [])]

    def polysemy(self, word: str) -> int:
        """Number of senses of ``word`` (0 when unknown)."""
        return len(self._by_word.get(word.lower(), []))

    def set_sense_order(self, word: str, ordered_ids: list[str]) -> None:
        """Set the sense ranking of ``word`` explicitly.

        By default senses rank in registration order; loaders with an
        external ranking (e.g. WordNet's ``index`` files, ordered by
        tagged-corpus frequency) override it here.  ``ordered_ids`` must
        be a permutation of the word's current sense ids.
        """
        word = word.lower()
        current = self._by_word.get(word)
        if current is None:
            raise KeyError(f"unknown word {word!r}")
        if sorted(ordered_ids) != sorted(current):
            raise ValueError(
                f"sense order for {word!r} must permute {sorted(current)}"
            )
        self._by_word[word] = list(ordered_ids)
        self._fingerprint = None

    @property
    def max_polysemy(self) -> int:
        """``Max(senses(SN))`` — the highest polysemy of any word.

        In WordNet 2.1 this is 33 (the word *head*); the curated lexicon
        reproduces that extreme so normalization behaves like the paper's.
        """
        if self._max_polysemy is None:
            self._max_polysemy = max(
                (len(ids) for ids in self._by_word.values()), default=1
            )
        return self._max_polysemy

    # -- neighborhood queries ------------------------------------------------------

    def related(
        self, concept_id: str, relations: Iterable[Relation] | None = None
    ) -> list[tuple[Relation, str]]:
        """Outgoing (relation, target-id) pairs from ``concept_id``."""
        if concept_id not in self._concepts:
            raise UnknownConceptError(concept_id)
        edge_map = self._edges.get(concept_id, {})
        wanted = set(relations) if relations is not None else None
        out: list[tuple[Relation, str]] = []
        for relation, targets in edge_map.items():
            if wanted is not None and relation not in wanted:
                continue
            out.extend((relation, target) for target in targets)
        return out

    def neighbors(
        self, concept_id: str, relations: Iterable[Relation] | None = None
    ) -> list[str]:
        """Target concept ids adjacent to ``concept_id``."""
        return [target for _rel, target in self.related(concept_id, relations)]

    def edges(self) -> list[Edge]:
        """Every directed edge in the network."""
        out = []
        for source, edge_map in self._edges.items():
            for relation, targets in edge_map.items():
                out.extend(Edge(source, target, relation) for target in targets)
        return out

    def hypernyms(self, concept_id: str) -> list[str]:
        """Direct IS-A parents of a concept (empty at taxonomy roots)."""
        return self._edges.get(concept_id, {}).get(Relation.HYPERNYM, [])

    def hyponyms(self, concept_id: str) -> list[str]:
        """Direct IS-A children of a concept."""
        return self._edges.get(concept_id, {}).get(Relation.HYPONYM, [])

    # -- rings and spheres (Section 3.5.2) -------------------------------------------

    def sphere(
        self,
        concept_id: str,
        radius: int,
        relations: Iterable[Relation] | None = None,
    ) -> dict[str, int]:
        """Concept ids within ``radius`` hops, mapped to their distance.

        The center itself is included at distance 0, mirroring the XML
        sphere neighborhood which includes the target node.  Rings over a
        semantic network follow *semantic* relations instead of XML
        containment edges (paper Section 3.5.2).
        """
        if concept_id not in self._concepts:
            raise UnknownConceptError(concept_id)
        wanted = tuple(relations) if relations is not None else None
        distances = {concept_id: 0}
        queue: deque[str] = deque([concept_id])
        while queue:
            current = queue.popleft()
            d = distances[current]
            if d == radius:
                continue
            for neighbor in self.neighbors(current, wanted):
                if neighbor not in distances:
                    distances[neighbor] = d + 1
                    queue.append(neighbor)
        return distances

    def ring(
        self,
        concept_id: str,
        distance: int,
        relations: Iterable[Relation] | None = None,
    ) -> list[str]:
        """Concept ids at exactly ``distance`` hops from ``concept_id``."""
        sphere = self.sphere(concept_id, distance, relations)
        return [cid for cid, d in sphere.items() if d == distance]

    # -- taxonomy queries ------------------------------------------------------------

    def roots(self) -> list[str]:
        """Concepts with no hypernym (taxonomy roots)."""
        return [cid for cid in self._concepts if not self.hypernyms(cid)]

    def hypernym_closure(self, concept_id: str) -> dict[str, int]:
        """All ancestors via IS-A, mapped to their minimal hop distance.

        Includes the concept itself at distance 0.
        """
        if concept_id not in self._concepts:
            raise UnknownConceptError(concept_id)
        distances = {concept_id: 0}
        queue: deque[str] = deque([concept_id])
        while queue:
            current = queue.popleft()
            for parent in self.hypernyms(current):
                if parent not in distances:
                    distances[parent] = distances[current] + 1
                    queue.append(parent)
        return distances

    def depth(self, concept_id: str) -> int:
        """Minimal number of IS-A edges from a root down to this concept."""
        cached = self._depth_cache.get(concept_id)
        if cached is not None:
            return cached
        closure = self.hypernym_closure(concept_id)
        root_distances = [
            dist for cid, dist in closure.items() if not self.hypernyms(cid)
        ]
        depth = min(root_distances) if root_distances else 0
        self._depth_cache[concept_id] = depth
        return depth

    @property
    def max_taxonomy_depth(self) -> int:
        """Deepest concept depth (for Leacock-Chodorow normalization)."""
        return max((self.depth(cid) for cid in self._concepts), default=1)

    def lowest_common_subsumer(self, a: str, b: str) -> str | None:
        """The deepest shared IS-A ancestor of ``a`` and ``b`` (or None).

        The tie-break key ``(depth, -distance-sum, concept-id)`` is a
        *total* order: without the id component, exact depth/distance
        ties would fall back to set-iteration order, which varies with
        ``PYTHONHASHSEED`` — unacceptable for cross-process determinism.
        """
        closure_a = self.hypernym_closure(a)
        closure_b = self.hypernym_closure(b)
        shared = set(closure_a) & set(closure_b)
        if not shared:
            return None
        return max(
            shared,
            key=lambda cid: (
                self.depth(cid), -closure_a[cid] - closure_b[cid], cid
            ),
        )

    def taxonomic_distance(self, a: str, b: str) -> int | None:
        """Shortest IS-A path length between two concepts (via their LCS)."""
        lcs = self.lowest_common_subsumer(a, b)
        if lcs is None:
            return None
        return self.hypernym_closure(a)[lcs] + self.hypernym_closure(b)[lcs]

    # -- frequencies / weighted network ------------------------------------------------

    def set_frequency(self, concept_id: str, frequency: float) -> None:
        """Set the corpus occurrence count of one concept (``SN-bar``)."""
        self.concept(concept_id).frequency = float(frequency)
        self._cumfreq_cache = None
        self._fingerprint = None

    def cumulative_frequency(self, concept_id: str) -> float:
        """Frequency of the concept plus all IS-A descendants.

        This is the count used by Resnik-style information content:
        observing any hyponym is evidence for the ancestor class.
        """
        if self._cumfreq_cache is None:
            self._compute_cumulative_frequencies()
        assert self._cumfreq_cache is not None
        if concept_id not in self._concepts:
            raise UnknownConceptError(concept_id)
        return self._cumfreq_cache[concept_id]

    def _compute_cumulative_frequencies(self) -> None:
        """One bottom-up pass over the IS-A DAG (memoized DFS)."""
        cache: dict[str, float] = {}

        def visit(cid: str, trail: set[str]) -> float:
            if cid in cache:
                return cache[cid]
            if cid in trail:  # defensive: a cycle would otherwise hang
                return 0.0
            trail.add(cid)
            total = self._concepts[cid].frequency
            for child in self.hyponyms(cid):
                total += visit(child, trail)
            trail.discard(cid)
            cache[cid] = total
            return total

        for cid in self._concepts:
            visit(cid, set())
        self._cumfreq_cache = cache

    @property
    def total_frequency(self) -> float:
        """Sum of all concept frequencies (the corpus size proxy).

        Summed left to right from ``0.0`` in concept order, so IC has
        the same bits on every CPython version (3.12 made float
        ``sum()`` compensated).
        """
        total = 0.0
        for concept in self._concepts.values():
            total += concept.frequency
        return total

    # -- misc -------------------------------------------------------------------------

    def fingerprint(self) -> str:
        """Content digest of the network, stable across processes.

        Hashes every input the disambiguation pipeline reads: concept
        ids, synonym words, glosses, POS tags, frequencies, the
        per-word sense *ranking* (``set_sense_order`` changes it without
        adding content), and every typed edge — all in sorted order so
        the digest is independent of construction order and
        ``PYTHONHASHSEED``.  Batch journals and index shards are
        stamped with it, so a resume or a shard attach under a mutated
        network is refused; the digest is cached and recomputed only
        after mutation.
        """
        if self._fingerprint is not None:
            return self._fingerprint
        hasher = hashlib.sha256()
        update = hasher.update
        for cid in sorted(self._concepts):
            concept = self._concepts[cid]
            update(repr((
                cid, concept.words, concept.gloss, concept.pos,
                # float() so an int-frequency network (Concept declares
                # float, but callers may pass ints) hashes the same
                # after a JSON save -> load coerces it to float.
                float(concept.frequency),
            )).encode("utf-8"))
        for word in sorted(self._by_word):
            update(repr((word, tuple(self._by_word[word]))).encode("utf-8"))
        for source in sorted(self._edges):
            edge_map = self._edges[source]
            for relation in sorted(edge_map, key=lambda r: r.value):
                # Targets sorted: edge *membership* is content, edge
                # insertion order is not (save -> load canonicalizes
                # relation order, and the digest must survive it).
                update(repr(
                    (source, relation.value, tuple(sorted(edge_map[relation])))
                ).encode("utf-8"))
        self._fingerprint = hasher.hexdigest()
        return self._fingerprint

    def stats(self) -> dict[str, float]:
        """Summary statistics (useful in docs/tests/benchmarks)."""
        n_edges = sum(
            len(targets)
            for edge_map in self._edges.values()
            for targets in edge_map.values()
        )
        return {
            "concepts": len(self._concepts),
            "words": len(self._by_word),
            "directed_edges": n_edges,
            "max_polysemy": self.max_polysemy,
            "roots": len(self.roots()),
            "max_depth": self.max_taxonomy_depth,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SemanticNetwork({self.name!r}, {len(self)} concepts)"
