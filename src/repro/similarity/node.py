"""Node-based (information-content) semantic similarity measures.

These use the statistical distribution of concept occurrences in a text
corpus (the weighted network ``SN-bar``).  The paper plugs Lin's measure
(ICML 1998) in as ``Sim_Node``; Resnik and Jiang-Conrath variants are
provided for ablations.  All are normalized into [0, 1].

Each reads an :class:`~repro.semnet.ic.InformationContent` table over
the network walk (``ic=``, built from the network when omitted).  The
slot path of :class:`repro.similarity.combined.CombinedSimilarity`
scores Lin from the packed index with the same
:func:`~repro.semnet.ic.lin_ratio`.
"""

from __future__ import annotations

from ..semnet.ic import InformationContent
from ..semnet.network import SemanticNetwork


class LinSimilarity:
    """Lin similarity ``2*IC(lcs) / (IC(a)+IC(b))`` — already in [0, 1]."""

    def __init__(
        self,
        network: SemanticNetwork,
        ic: InformationContent | None = None,
    ):
        self._ic = ic if ic is not None else InformationContent(network)

    def __call__(self, a: str, b: str) -> float:
        return self._ic.lin(a, b)


class ResnikSimilarity:
    """Resnik similarity ``IC(lcs)``, normalized by the network's max IC."""

    def __init__(
        self,
        network: SemanticNetwork,
        ic: InformationContent | None = None,
    ):
        self._ic = ic if ic is not None else InformationContent(network)

    def __call__(self, a: str, b: str) -> float:
        if a == b:
            return min(1.0, self._ic.ic(a) / self._ic.max_ic)
        return min(1.0, self._ic.resnik(a, b) / self._ic.max_ic)


class JiangConrathSimilarity:
    """Jiang-Conrath distance converted to a [0, 1] similarity.

    ``sim = 1 - dist / (2 * max_ic)`` — the distance is bounded by
    ``2 * max_ic`` so the result stays in the unit interval.
    """

    def __init__(
        self,
        network: SemanticNetwork,
        ic: InformationContent | None = None,
    ):
        self._ic = ic if ic is not None else InformationContent(network)

    def __call__(self, a: str, b: str) -> float:
        if a == b:
            return 1.0
        distance = self._ic.jiang_conrath_distance(a, b)
        bound = 2.0 * self._ic.max_ic
        if bound <= 0:
            return 0.0
        return max(0.0, 1.0 - distance / bound)
