"""Candidate entity match generation (Section IV-B).

Entity labels are normalized and compared with the Jaccard coefficient; an
inverted token index keeps the comparison near-linear (a pair can only pass
the threshold if it shares at least one token).  Label similarities double
as prior match probabilities, and pairs with *identical* labels form the
initial entity matches ``M_in`` that seed attribute matching and
relationship-consistency estimation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.accel.candidates import score_candidates
from repro.kb.model import KnowledgeBase
from repro.obs import runtime as obs
from repro.text.normalize import normalize_label

Pair = tuple[str, str]


@dataclass(slots=True)
class CandidateSet:
    """Candidate matches ``M_c`` with priors, plus initial matches ``M_in``."""

    pairs: set[Pair] = field(default_factory=set)
    priors: dict[Pair, float] = field(default_factory=dict)
    initial_matches: set[Pair] = field(default_factory=set)

    def __len__(self) -> int:
        return len(self.pairs)

    def __contains__(self, pair: Pair) -> bool:
        return pair in self.pairs

    def prior(self, pair: Pair) -> float:
        return self.priors.get(pair, 0.0)

    def add_exact_label_pair(
        self, pair: Pair, tokens1: dict[str, frozenset[str]], tokens2: dict[str, frozenset[str]]
    ) -> None:
        """Put ``pair``, whose entities share an identical raw label, in ``M_in``.

        A pair blocking never saw, because a side normalizes to no tokens
        (``tokens1``/``tokens2`` are the token-set maps), enters with prior 1.0.
        """
        if pair in self.pairs:
            self.initial_matches.add(pair)
        elif pair[0] not in tokens1 or pair[1] not in tokens2:
            self.pairs.add(pair)
            self.priors[pair] = 1.0
            self.initial_matches.add(pair)


def _token_index(kb: KnowledgeBase) -> tuple[dict[str, frozenset[str]], dict[str, set[str]]]:
    """Normalize every labeled entity; return token sets and inverted index."""
    token_sets: dict[str, frozenset[str]] = {}
    inverted: dict[str, set[str]] = {}
    for entity in kb.entities:
        label = kb.label(entity)
        if label is None:
            continue
        tokens = normalize_label(label)
        if not tokens:
            continue
        token_sets[entity] = tokens
        for token in tokens:
            inverted.setdefault(token, set()).add(entity)
    return token_sets, inverted


def _labels_index(kb: KnowledgeBase) -> dict[str, set[str]]:
    """Raw label → entities carrying it (the ``M_in`` exact-label map)."""
    labels: dict[str, set[str]] = {}
    for entity in kb.entities:
        for label in kb.labels(entity):
            labels.setdefault(label, set()).add(entity)
    return labels


def score_row(
    tokens: frozenset[str],
    other_tokens: dict[str, frozenset[str]],
    other_inverted: dict[str, set[str]],
    threshold: float,
) -> dict[str, float]:
    """Jaccard scores of one entity's tokens against the other KB's entities.

    Integer ``|T1 ∩ T2|`` counts off the postings and one float division
    (``|T1 ∪ T2| = |T1| + |T2| − |T1 ∩ T2|``), so a row scored from
    either side is bit-equal.  Scores below ``threshold`` are left out.
    """
    intersections: dict[str, int] = {}
    for token in tokens:
        for other in other_inverted.get(token, ()):
            intersections[other] = intersections.get(other, 0) + 1
    size = len(tokens)
    row: dict[str, float] = {}
    for other, shared in intersections.items():
        sim = shared / (size + len(other_tokens[other]) - shared)
        if sim >= threshold:
            row[other] = sim
    return row


def generate_candidates(
    kb1: KnowledgeBase,
    kb2: KnowledgeBase,
    threshold: float = 0.3,
) -> CandidateSet:
    """Build the candidate set ``M_c`` between ``kb1`` and ``kb2``.

    A pair enters ``M_c`` when the Jaccard similarity of its normalized
    label token sets reaches ``threshold``; the similarity becomes the
    pair's prior match probability.  Pairs sharing an exactly equal raw
    label are additionally recorded as initial matches ``M_in`` — and an
    exact raw-label pair is admitted with prior 1.0 even when the label
    normalizes to an *empty* token set (all-punctuation or non-Latin
    labels), which token-based blocking alone would silently drop.

    The Jaccard scores are accumulated straight off the inverted index
    (:func:`score_row` per entity, or the vectorized
    :func:`repro.accel.candidates.score_candidates` above its cutoff).
    """
    with obs.timed("candidates.token_index"):
        tokens1, _ = _token_index(kb1)
        tokens2, inverted2 = _token_index(kb2)
    labels2 = _labels_index(kb2)

    result = CandidateSet()
    with obs.timed("candidates.score"):
        scored = score_candidates(tokens1, tokens2, inverted2, threshold)
        if scored is not None:
            result.pairs.update(scored)
            result.priors.update(scored)
        else:
            for entity1, tset1 in tokens1.items():
                for entity2, sim in score_row(tset1, tokens2, inverted2, threshold).items():
                    pair = (entity1, entity2)
                    result.pairs.add(pair)
                    result.priors[pair] = sim

    for entity1 in kb1.entities:
        for label in kb1.labels(entity1):
            for entity2 in labels2.get(label, ()):
                result.add_exact_label_pair((entity1, entity2), tokens1, tokens2)
    return result
