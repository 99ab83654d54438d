"""Similarity vectors and the natural partial order (Section IV-D).

Each candidate pair gets a vector of ``simL`` values, one per attribute
match.  The partial order is componentwise dominance: ``s ⪰ s'`` iff every
component of ``s`` is at least the corresponding component of ``s'``.
``min_rank`` (Eq. 2) counts, for each side of a pair, how many sibling
candidates strictly dominate it — the pair's best possible rank in any
linear extension.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.attributes import AttributeMatch
from repro.kb.model import KnowledgeBase
from repro.obs import runtime as obs
from repro.substrate import literal_scorer

Pair = tuple[str, str]
Vector = tuple[float, ...]


def build_similarity_vectors(
    kb1: KnowledgeBase,
    kb2: KnowledgeBase,
    pairs: set[Pair],
    attribute_matches: list[AttributeMatch],
    literal_threshold: float = 0.9,
) -> dict[Pair, Vector]:
    """Pre-compute the similarity vector of every candidate pair.

    Literals are interned once and every distinct simL comparison is
    scored exactly once (:class:`repro.accel.LiteralScorer`) — same
    greedy matching, same integer ratios as ``literal_set_similarity``.
    Under an activated prepare substrate the scorer (and its interning
    caches) is shared with every other pass over the same KB pair.
    """
    simL = literal_scorer(literal_threshold).set_similarity
    vectors: dict[Pair, Vector] = {}
    with obs.timed("kernel.simL"):
        for entity1, entity2 in pairs:
            attrs1 = kb1.entity_attributes(entity1)
            attrs2 = kb2.entity_attributes(entity2)
            components = []
            for match in attribute_matches:
                values1 = attrs1.get(match.attr1, ())
                values2 = attrs2.get(match.attr2, ())
                if values1 and values2:
                    components.append(simL(values1, values2))
                else:
                    components.append(0.0)
            vectors[(entity1, entity2)] = tuple(components)
    return vectors


def lead_with_prior(
    vectors: dict[Pair, Vector], priors: dict[Pair, float]
) -> dict[Pair, Vector]:
    """Prepend each pair's label similarity (its prior; 0.0 when absent).

    rdfs:label is itself an attribute match, and it is the finest-grained
    component, which keeps the partial order discriminative even when
    the other attributes produce mostly 0/1 similarities.
    """
    return {pair: (priors.get(pair, 0.0),) + vector for pair, vector in vectors.items()}


def dominates(s: Vector, t: Vector) -> bool:
    """``s ⪰ t``: every component of ``s`` at least matches ``t``."""
    return all(x >= y for x, y in zip(s, t))


def strictly_dominates(s: Vector, t: Vector) -> bool:
    """``s ≻ t``: dominance with at least one strictly larger component."""
    return s != t and dominates(s, t)


@dataclass(slots=True)
class VectorIndex:
    """Similarity vectors grouped by the entities they involve.

    ``by_left[u1]`` lists all candidate pairs containing ``u1`` on the KB1
    side, and symmetrically for ``by_right`` — the blocks ``B`` that
    Algorithm 1 iterates over.
    """

    vectors: dict[Pair, Vector]
    by_left: dict[str, list[Pair]] = field(default_factory=dict)
    by_right: dict[str, list[Pair]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for pair in self.vectors:
            self.by_left.setdefault(pair[0], []).append(pair)
            self.by_right.setdefault(pair[1], []).append(pair)

    def min_rank_left(self, pair: Pair) -> int:
        """|{u2' : s(u1, u2') ≻ s(u1, u2)}| over candidates sharing u1."""
        vector = self.vectors[pair]
        return sum(
            1
            for other in self.by_left.get(pair[0], ())
            if other != pair and strictly_dominates(self.vectors[other], vector)
        )

    def min_rank_right(self, pair: Pair) -> int:
        """|{u1' : s(u1', u2) ≻ s(u1, u2)}| over candidates sharing u2."""
        vector = self.vectors[pair]
        return sum(
            1
            for other in self.by_right.get(pair[1], ())
            if other != pair and strictly_dominates(self.vectors[other], vector)
        )

    def min_rank(self, pair: Pair) -> int:
        """Eq. 2: the worse of the two one-sided minimal ranks."""
        return max(self.min_rank_left(pair), self.min_rank_right(pair))
