"""The XSDF orchestrator (paper Figure 3).

Chains the four modules end to end:

1. **linguistic pre-processing** — tag names and values are tokenized,
   stop-word-filtered, stemmed, and compound-resolved against the
   semantic network while the XML tree is built;
2. **node selection** — the ambiguity degree measure picks target nodes
   above ``Thresh_Amb``;
3. **context definition** — each target gets a sphere neighborhood of
   the configured radius and its context vector;
4. **semantic disambiguation** — concept-based, context-based, or the
   weighted combination (Eq. 13) picks the best sense per target.

Typical use::

    from repro import XSDF, XSDFConfig
    from repro.semnet import default_lexicon

    xsdf = XSDF(default_lexicon(), XSDFConfig(sphere_radius=2))
    result = xsdf.disambiguate_document(xml_text)
    semantic_xml = xsdf.to_semantic_xml(xml_text)
"""

from __future__ import annotations

from contextlib import nullcontext

from ..linguistics.pipeline import LinguisticPipeline
from ..semnet.network import SemanticNetwork
from ..similarity.combined import CombinedSimilarity
from ..xmltree.dom import XMLNode, XMLTree, build_tree
from ..xmltree.parser import parse
from ..xmltree.serializer import serialize_semantic_tree
from .ambiguity import ambiguity_degree, select_targets
from .candidates import Candidate, candidate_senses, context_sense_ids
from .concept_based import ConceptBasedScorer
from .config import DisambiguationApproach, XSDFConfig
from .context_based import ContextBasedScorer
from .context_vector import context_vector
from .distances import resolve_policy
from .results import DisambiguationResult, SenseAssignment
from .sphere import build_sphere


class DocumentPlan:
    """Per-node facts every sphere of one document reads, derived once.

    Indexed by preorder node index: ``senses[i]`` is node ``i``'s
    context sense-id tuple (Definition 8's inventory, one shared tuple
    per distinct ``(label, tokens)``), ``inventories[i]`` that tuple's
    *inventory id* in ``inventory_ids`` — the interning table of the
    :class:`~repro.core.concept_based.ConceptBasedScorer` that scores
    the plan, where a tuple not seen before takes the next id — and
    ``segments[i]`` the ``repr`` of the ``(label, tokens)`` pair without
    its parentheses, the text a member adds to the memo key
    (:meth:`repro.runtime.memo.SphereMemo.signature`).  ``degrees``
    maps each target to its ``Amb_Deg`` (Definition 3), as
    :func:`~repro.core.ambiguity.select_targets` computed it.  A plan
    lives for one :meth:`XSDF.disambiguate_tree` call and is passed down
    as an argument: an :class:`XSDF` serves many documents.
    """

    __slots__ = ("senses", "inventories", "segments", "degrees")

    def __init__(
        self,
        tree: XMLTree,
        network: SemanticNetwork,
        inventory_ids: dict[tuple[str, ...], int],
    ):
        facts: dict[
            tuple[str, tuple[str, ...]], tuple[tuple[str, ...], int, str]
        ] = {}
        senses: list[tuple[str, ...]] = []
        inventories: list[int] = []
        segments: list[str] = []
        for node in tree:
            key = (node.label, node.tokens)
            fact = facts.get(key)
            if fact is None:
                sense_ids = tuple(context_sense_ids(node, network))
                inventory = inventory_ids.get(sense_ids)
                if inventory is None:
                    inventory = inventory_ids[sense_ids] = len(inventory_ids)
                fact = facts[key] = (sense_ids, inventory, repr(key)[1:-1])
            senses.append(fact[0])
            inventories.append(fact[1])
            segments.append(fact[2])
        self.senses = senses
        self.inventories = inventories
        self.segments = segments
        self.degrees: dict[int, float] = {}


class XSDF:
    """XML Semantic Disambiguation Framework.

    Parameters
    ----------
    network:
        The reference semantic network (e.g. the curated lexicon).
    config:
        Pipeline parameters; defaults follow the paper.  The instance
        scores with its own :class:`CombinedSimilarity` (Definition 9)
        over ``config.similarity_weights``; ``Sim`` is a function of
        the concept pair, so any two instances with equal
        configurations score alike.
    index:
        Optional :class:`repro.runtime.pack.PackedIndex` built over
        ``network``.  The similarity then scores over its slots
        (:class:`CombinedSimilarity`'s slot path, the one reader of the
        packed taxonomy/IC/gloss kernels) — sense choices and scores
        are bit-identical with and without it.
    cache_size:
        Bound of the two LRUs the instance creates and owns, as it owns
        its memo: the similarity's pairwise-score memo
        (``similarity_cache``) and the concept-based scorer's
        best-sense memo (``Max_j Sim(candidate, s_j)`` per candidate
        and context sense inventory, ``sense_cache``).  A positive int
        bounds both, ``None`` leaves both unbounded, and 0 (the
        default) keeps neither: the pair memo is then
        :class:`CombinedSimilarity`'s own dict.  Scores are unchanged;
        repeated pairs and context labels get cheaper.  Neither LRU is
        shared with another instance, whose weights or interned ids
        may differ.
    metrics:
        Optional :class:`repro.runtime.metrics.MetricsRegistry`.  When
        set, the pipeline records per-stage latency (parse, select,
        sphere, score) and document/target counters; the default
        ``None`` keeps every hot path exactly as uninstrumented.

    While ``config.memo`` is on, the instance keeps a private
    :class:`repro.runtime.memo.SphereMemo` (``sphere_memo``) replaying
    whole disambiguation outcomes for repeated spheres.  The network,
    the configuration and the similarity are fixed for the instance's
    life, so the target and its ordered sphere are the whole key, and
    replayed results are bit-identical to fresh computation.

    An instance scores one document at a time: its caches and id
    tables take no lock.
    """

    def __init__(
        self,
        network: SemanticNetwork,
        config: XSDFConfig | None = None,
        index=None,
        cache_size: int | None = 0,
        metrics=None,
    ):
        self.network = network
        self.config = config or XSDFConfig()
        self.index = index
        self.similarity_cache = None
        self.metrics = metrics
        self.pipeline = LinguisticPipeline(known=network.has_word)
        if cache_size != 0:
            from ..runtime.cache import LRUCache

            self.similarity_cache = LRUCache(maxsize=cache_size)
        self._similarity = CombinedSimilarity(
            network,
            weights=self.config.similarity_weights,
            index=index,
            cache=self.similarity_cache,
        )
        self.sphere_memo = None
        if self.config.memo:
            from ..runtime.memo import SphereMemo

            self.sphere_memo = SphereMemo()
        #: Cumulative exact-pruning counters (pruned candidates were
        #: *provably* losing; evaluated ones were scored exactly).
        self.prune_stats = {
            "candidates_evaluated": 0,
            "candidates_pruned": 0,
        }
        self._concept_scorer = ConceptBasedScorer(
            self._similarity, sense_cache_size=cache_size
        )
        self.sense_cache = self._concept_scorer.sense_cache
        self._distance_policy = (
            None
            if self.config.distance_policy is None
            else resolve_policy(self.config.distance_policy)
        )
        self._context_scorer = ContextBasedScorer(
            network,
            self.config.sphere_radius,
            self.config.vector_measure,
            strip_target_dimension=self.config.strip_target_dimension,
        )

    # -- tree construction -------------------------------------------------

    def _stage(self, name: str):
        """One per-document stage's timer, or a no-op when uninstrumented."""
        m = self.metrics
        return nullcontext() if m is None else m.timer(name)

    def build_tree(self, xml_text: str) -> XMLTree:
        """Parse XML text into a pre-processed rooted labeled tree."""
        with self._stage("parse"):
            document = parse(xml_text)
            return build_tree(
                document.root,
                include_values=self.config.include_values,
                label_processor=self.pipeline.process_label,
                value_processor=self.pipeline.process_value,
            )

    # -- disambiguation ------------------------------------------------------

    def _plan(self, tree: XMLTree) -> DocumentPlan:
        """``tree``'s plan, its inventories interned by this instance."""
        return DocumentPlan(
            tree, self.network, self._concept_scorer.inventory_ids
        )

    def disambiguate_document(self, xml_text: str) -> DisambiguationResult:
        """Full pipeline: XML text in, sense assignments out."""
        if self.metrics is not None:
            self.metrics.count("documents")
        with self._stage("document"):
            return self.disambiguate_tree(self.build_tree(xml_text))

    def disambiguate_tree(
        self, tree: XMLTree, targets: list[XMLNode] | None = None
    ) -> DisambiguationResult:
        """Run selection + disambiguation over an already-built tree.

        ``targets`` overrides ambiguity-based selection — the evaluation
        harness passes the pre-selected gold nodes so every system
        disambiguates the same set (paper Section 4.3).
        """
        m = self.metrics
        plan = self._plan(tree)
        if targets is None:
            with self._stage("select"):
                targets = select_targets(
                    tree,
                    self.network,
                    threshold=self.config.ambiguity_threshold,
                    weights=self.config.ambiguity_weights,
                    degrees=plan.degrees,
                )
        assignments = []
        for node in targets:
            assignment = self.disambiguate_node(tree, node, plan)
            if assignment is not None:
                assignments.append(assignment)
        if m is not None:
            m.count("nodes", len(tree))
            m.count("targets", len(targets))
            m.count("assignments", len(assignments))
        return DisambiguationResult(
            assignments=assignments,
            n_nodes=len(tree),
            n_targets=len(targets),
            radius=self.config.sphere_radius,
        )

    def disambiguate_node(
        self, tree: XMLTree, node: XMLNode, plan: DocumentPlan | None = None
    ) -> SenseAssignment | None:
        """Disambiguate a single node; None when it has no candidates.

        ``plan`` is ``tree``'s :class:`DocumentPlan`, built here if not
        given.
        """
        candidates = candidate_senses(node, self.network)
        if not candidates:
            return None
        if plan is None:
            plan = self._plan(tree)
        m = self.metrics
        radius, policy = self.config.sphere_radius, self._distance_policy
        if m is None:
            sphere = build_sphere(tree, node, radius, policy=policy)
            scored = self._score_memoized(candidates, sphere, plan)
        else:
            with m.timer("sphere"):
                sphere = build_sphere(tree, node, radius, policy=policy)
            with m.timer("score"):
                scored = self._score_memoized(candidates, sphere, plan)
        concept_scores, context_scores, combined, chosen = scored
        ambiguity = plan.degrees.get(node.index)
        if ambiguity is None:
            # A caller-chosen target: select_targets never scored it.
            ambiguity = ambiguity_degree(
                node, tree, self.network, self.config.ambiguity_weights
            )
        return SenseAssignment(
            node_index=node.index,
            label=node.label,
            chosen=chosen,
            score=combined[chosen],
            concept_score=concept_scores.get(chosen, 0.0),
            context_score=context_scores.get(chosen, 0.0),
            ambiguity=ambiguity,
            scores=combined,
        )

    def _score_memoized(
        self, candidates: list[Candidate], sphere, plan: DocumentPlan
    ):
        """:meth:`_score`, replayed from the sphere memo when possible.

        The memo key (:func:`repro.runtime.memo.sphere_signature`)
        covers the target and the ordered member sequence, the whole
        input of the scoring function that varies within one instance,
        so replayed entries are bit-identical to fresh computation.
        """
        memo = self.sphere_memo
        if memo is None:
            return self._score(candidates, sphere, plan)
        signature = memo.signature(sphere, plan)
        entry = memo.get(signature)
        if entry is not None:
            chosen, combined_items, concept_items, context_items = entry
            # Fresh dicts per assignment: SenseAssignment exposes the
            # scores mapping, so callers must not share one instance.
            return (
                dict(concept_items),
                dict(context_items),
                dict(combined_items),
                chosen,
            )
        concept_scores, context_scores, combined, chosen = self._score(
            candidates, sphere, plan
        )
        memo.put(
            signature,
            (
                chosen,
                tuple(combined.items()),
                tuple(concept_scores.items()),
                tuple(context_scores.items()),
            ),
        )
        return concept_scores, context_scores, combined, chosen

    def _score(
        self, candidates: list[Candidate], sphere, plan: DocumentPlan
    ):
        """Per-candidate concept, context, and final scores (Eq. 13).

        Returns ``(concept_scores, context_scores, combined, chosen)``.
        With pruning active, ``combined`` (and ``concept_scores``)
        contain only the candidates that were actually evaluated —
        every skipped candidate was *provably* below the winner.
        """
        approach = self.config.approach
        # Both scorers weight by the same Definition 7 vector; derive it
        # once per sphere instead of once per scorer.
        vector = context_vector(sphere)
        if (
            self.config.prune
            and approach is not DisambiguationApproach.CONTEXT_BASED
            and len(candidates) > 1
        ):
            return self._score_pruned(candidates, sphere, vector, plan)
        concept_scores: dict[Candidate, float] = {}
        context_scores: dict[Candidate, float] = {}
        if approach in (
            DisambiguationApproach.CONCEPT_BASED,
            DisambiguationApproach.COMBINED,
        ):
            scorer = self._concept_scorer
            context = scorer.context_inventory(sphere, plan, vector)
            size = len(sphere)
            concept_scores = {
                candidate: scorer.score_one(candidate, context, size)
                for candidate in candidates
            }
        if approach in (
            DisambiguationApproach.CONTEXT_BASED,
            DisambiguationApproach.COMBINED,
        ):
            context_scores = self._context_scorer.score_all(
                candidates, sphere, vector
            )
        if approach is DisambiguationApproach.CONCEPT_BASED:
            combined = dict(concept_scores)
        elif approach is DisambiguationApproach.CONTEXT_BASED:
            combined = dict(context_scores)
        else:
            w_concept, w_context = self.config.normalized_approach_weights
            combined = {
                candidate: (
                    w_concept * concept_scores[candidate]
                    + w_context * context_scores[candidate]
                )
                for candidate in candidates
            }
        self.prune_stats["candidates_evaluated"] += len(candidates)
        if self.metrics is not None:
            self.metrics.count("candidates_evaluated", len(candidates))
        return concept_scores, context_scores, combined, self._pick(combined)

    def _score_pruned(
        self,
        candidates: list[Candidate],
        sphere,
        vector: dict[str, float],
        plan: DocumentPlan,
    ):
        """Best-bound-first scoring with an exact early stop.

        Candidates are evaluated in decreasing order of a float upper
        bound on their final score (the cheap context-based component is
        computed exactly for all candidates; only the expensive
        concept-based sum is bounded).  Once the running best provably
        dominates every remaining bound under :meth:`_pick`'s
        ``(score, sense-rank)`` order, the rest are skipped.  Because
        the bound dominates the true score *in float arithmetic* (see
        :meth:`ConceptBasedScorer.upper_bound_one`) and the evaluated
        scores use the identical operation sequence as the exhaustive
        path, the chosen sense and all reported scores are
        bit-identical to exhaustive scoring.
        """
        approach = self.config.approach
        scorer = self._concept_scorer
        context = scorer.context_inventory(sphere, plan, vector)
        size = len(sphere)
        combined_approach = approach is DisambiguationApproach.COMBINED
        if combined_approach:
            w_concept, w_context = self.config.normalized_approach_weights
            context_scores = self._context_scorer.score_all(
                candidates, sphere, vector
            )
        else:
            w_concept, w_context = 1.0, 0.0
            context_scores = {}
        ranked = []
        for rank, candidate in enumerate(candidates):
            concept_ub = scorer.upper_bound_one(candidate, context, size)
            if combined_approach:
                bound = (
                    w_concept * concept_ub
                    + w_context * context_scores[candidate]
                )
            else:
                bound = concept_ub
            ranked.append((bound, rank, candidate))
        # Descending bound, ascending sense rank on equal bounds, so the
        # break below can never skip a candidate that _pick would take.
        ranked.sort(key=lambda item: (-item[0], item[1]))
        concept_scores: dict[Candidate, float] = {}
        combined: dict[Candidate, float] = {}
        best: Candidate | None = None
        best_score = float("-inf")
        best_rank = -1
        evaluated = 0
        for bound, rank, candidate in ranked:
            # A remaining candidate can only beat (best_score,
            # best_rank) in _pick's order if its bound exceeds the best
            # score, or ties it with an earlier sense rank.  The sort
            # order makes every later candidate skippable too.
            if bound < best_score or (
                bound == best_score and rank > best_rank
            ):
                break
            concept = scorer.score_one(candidate, context, size)
            concept_scores[candidate] = concept
            if combined_approach:
                score = (
                    w_concept * concept
                    + w_context * context_scores[candidate]
                )
            else:
                score = concept
            combined[candidate] = score
            evaluated += 1
            if score > best_score or (
                score == best_score and rank < best_rank
            ):
                best = candidate
                best_score = score
                best_rank = rank
        stats = self.prune_stats
        stats["candidates_evaluated"] += evaluated
        stats["candidates_pruned"] += len(candidates) - evaluated
        m = self.metrics
        if m is not None:
            m.count("candidates_evaluated", evaluated)
            m.count("candidates_pruned", len(candidates) - evaluated)
        assert best is not None
        return concept_scores, context_scores, combined, best

    @staticmethod
    def _pick(scores: dict[Candidate, float]) -> Candidate:
        """Arg-max with a deterministic tie-break (sense-rank order).

        Candidates are enumerated in sense-rank order, so on ties the
        more frequent (earlier) sense wins — the conventional WSD
        fallback.
        """
        best: Candidate | None = None
        best_score = float("-inf")
        for candidate, score in scores.items():
            if score > best_score:
                best = candidate
                best_score = score
        assert best is not None
        return best

    # -- output ------------------------------------------------------------------

    def to_semantic_xml(self, xml_text: str) -> str:
        """Disambiguate and serialize the semantic XML tree (Figure 4)."""
        tree = self.build_tree(xml_text)
        result = self.disambiguate_tree(tree)
        return serialize_semantic_tree(tree, result.concept_map(), self.network)
