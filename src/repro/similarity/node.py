"""Node-based (information-content) semantic similarity measures.

These use the statistical distribution of concept occurrences in a text
corpus (the weighted network ``SN-bar``).  The paper plugs Lin's measure
(ICML 1998) in as ``Sim_Node``; Resnik and Jiang-Conrath variants are
provided for ablations.  All are normalized into [0, 1].

Each accepts an optional :class:`repro.runtime.pack.PackedIndex`
(``index=``): IC values stay table lookups either way, but the
lowest-common-subsumer query — the taxonomy walk dominating these
measures — is served from the interned pair kernel, with bit-identical
results.  An explicit ``ic=`` table is still consulted for the IC
values themselves, so custom-IC semantics are preserved in packed mode
too.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Union

from ..semnet.ic import InformationContent, lin_ratio
from ..semnet.network import SemanticNetwork

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from ..runtime.pack import PackedIC, PackedIndex

    AnyIC = Union[InformationContent, PackedIC]


def _owns_ic(index: object, ic: object) -> bool:
    """True when ``ic`` *is* the packed index's own IC view.

    The LCS information content may then be read straight from the
    packed slot instead of re-interning its id string.
    """
    return index is not None and getattr(ic, "_owner", None) is index


class LinSimilarity:
    """Lin similarity ``2*IC(lcs) / (IC(a)+IC(b))`` — already in [0, 1]."""

    def __init__(
        self,
        network: SemanticNetwork,
        ic: "AnyIC | None" = None,
        index: "PackedIndex | None" = None,
    ):
        if ic is None:
            ic = index.ic if index is not None else InformationContent(network)
        self._ic = ic
        self._packed = index
        self._packed_ic = _owns_ic(index, ic)

    def __call__(self, a: str, b: str) -> float:
        packed = self._packed
        if packed is not None:
            # Same arithmetic, LCS from the interned pair kernel.
            if a == b:
                return 1.0
            ic = self._ic
            terms = packed.pair_terms(a, b)
            if terms is None:
                resnik = 0.0
            elif self._packed_ic:
                resnik = packed.ic_of_slot(terms[0])
            else:
                resnik = ic.ic(packed.concept_id(terms[0]))
            return lin_ratio(resnik, ic.ic(a), ic.ic(b))
        return self._ic.lin(a, b)


class ResnikSimilarity:
    """Resnik similarity ``IC(lcs)``, normalized by the network's max IC."""

    def __init__(
        self,
        network: SemanticNetwork,
        ic: "AnyIC | None" = None,
        index: "PackedIndex | None" = None,
    ):
        if ic is None:
            ic = index.ic if index is not None else InformationContent(network)
        self._ic = ic
        self._packed = index
        self._packed_ic = _owns_ic(index, ic)

    def __call__(self, a: str, b: str) -> float:
        if a == b:
            return min(1.0, self._ic.ic(a) / self._ic.max_ic)
        packed = self._packed
        if packed is not None:
            terms = packed.pair_terms(a, b)
            if terms is None:
                raw = 0.0
            elif self._packed_ic:
                raw = packed.ic_of_slot(terms[0])
            else:
                raw = self._ic.ic(packed.concept_id(terms[0]))
        else:
            raw = self._ic.resnik(a, b)
        return min(1.0, raw / self._ic.max_ic)


class JiangConrathSimilarity:
    """Jiang-Conrath distance converted to a [0, 1] similarity.

    ``sim = 1 - dist / (2 * max_ic)`` — the distance is bounded by
    ``2 * max_ic`` so the result stays in the unit interval.
    """

    def __init__(
        self,
        network: SemanticNetwork,
        ic: "AnyIC | None" = None,
        index: "PackedIndex | None" = None,
    ):
        if ic is None:
            ic = index.ic if index is not None else InformationContent(network)
        self._ic = ic
        self._packed = index
        self._packed_ic = _owns_ic(index, ic)

    def __call__(self, a: str, b: str) -> float:
        if a == b:
            return 1.0
        packed = self._packed
        if packed is not None:
            ic = self._ic
            terms = packed.pair_terms(a, b)
            if terms is None:
                resnik = 0.0
            elif self._packed_ic:
                resnik = packed.ic_of_slot(terms[0])
            else:
                resnik = ic.ic(packed.concept_id(terms[0]))
            distance = max(0.0, ic.ic(a) + ic.ic(b) - 2.0 * resnik)
        else:
            distance = self._ic.jiang_conrath_distance(a, b)
        bound = 2.0 * self._ic.max_ic
        if bound <= 0:
            return 0.0
        return max(0.0, 1.0 - distance / bound)
