"""Attribute matching with a global 1:1 constraint (Section IV-C).

For every attribute pair (a₁, a₂) the similarity is the average extended
Jaccard similarity ``simL`` of their value sets over the initial entity
matches ``M_in`` (Eq. 1), skipping pairs where both value sets are empty.
The 1:1 selection is a maximum-weight bipartite matching solved with the
Hungarian algorithm.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.assignment import hungarian_max
from repro.kb.model import LABEL_ATTRIBUTE, KnowledgeBase
from repro.substrate import literal_scorer

Pair = tuple[str, str]


@dataclass(frozen=True, slots=True)
class AttributeMatch:
    """A matched attribute pair and its Eq. 1 similarity."""

    attr1: str
    attr2: str
    similarity: float


def attribute_similarity_matrix(
    kb1: KnowledgeBase,
    kb2: KnowledgeBase,
    initial_matches: set[Pair],
    literal_threshold: float = 0.9,
    include_label: bool = False,
) -> dict[tuple[str, str], float]:
    """Eq. 1 similarities for all attribute pairs with any support.

    Only attribute pairs observed together on at least one initial entity
    match get a score; everything else is implicitly zero.  ``rdfs:label``
    is excluded by default — it is handled by candidate generation.
    """
    simL = literal_scorer(literal_threshold).set_similarity
    sums: dict[tuple[str, str], float] = {}
    counts: dict[tuple[str, str], int] = {}
    for entity1, entity2 in initial_matches:
        attrs1 = kb1.entity_attributes(entity1)
        attrs2 = kb2.entity_attributes(entity2)
        for a1, values1 in attrs1.items():
            if not include_label and a1 == LABEL_ATTRIBUTE:
                continue
            for a2, values2 in attrs2.items():
                if not include_label and a2 == LABEL_ATTRIBUTE:
                    continue
                if not values1 and not values2:
                    continue
                key = (a1, a2)
                sums[key] = sums.get(key, 0.0) + simL(values1, values2)
                counts[key] = counts.get(key, 0) + 1
    return {key: sums[key] / counts[key] for key in sums}


def match_attributes(
    kb1: KnowledgeBase,
    kb2: KnowledgeBase,
    initial_matches: set[Pair],
    literal_threshold: float = 0.9,
    min_similarity: float = 0.1,
    one_to_one: bool = True,
) -> list[AttributeMatch]:
    """Find attribute matches between the two KBs.

    With ``one_to_one`` (the paper's setting) the Hungarian algorithm picks
    a maximum-total-similarity assignment; without it, every pair whose
    similarity reaches ``min_similarity`` is kept (the "w/o 1:1 matching"
    ablation of Table IV).
    """
    sims = attribute_similarity_matrix(kb1, kb2, initial_matches, literal_threshold)
    scored = {k: v for k, v in sims.items() if v >= min_similarity}
    if not scored:
        return []
    if not one_to_one:
        return sorted(
            (AttributeMatch(a1, a2, sim) for (a1, a2), sim in scored.items()),
            key=lambda m: -m.similarity,
        )
    attrs1 = sorted({a1 for a1, _ in scored})
    attrs2 = sorted({a2 for _, a2 in scored})
    index1 = {a: i for i, a in enumerate(attrs1)}
    index2 = {a: j for j, a in enumerate(attrs2)}
    profit = [[0.0] * len(attrs2) for _ in attrs1]
    for (a1, a2), sim in scored.items():
        profit[index1[a1]][index2[a2]] = sim
    matches = []
    for i, j in hungarian_max(profit):
        if profit[i][j] >= min_similarity:
            matches.append(AttributeMatch(attrs1[i], attrs2[j], profit[i][j]))
    return sorted(matches, key=lambda m: -m.similarity)
