"""Shared plumbing for the baseline implementations."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.pipeline import PreparedState

Pair = tuple[str, str]


@dataclass(slots=True)
class BaselineResult:
    """Output common to every baseline: a match set and its crowd cost."""

    name: str
    matches: set[Pair]
    questions_asked: int
    extra: dict = field(default_factory=dict)


def partition_by_signature(
    state: PreparedState, merge_threshold: float = 0.5
) -> list[list[Pair]]:
    """Cluster retained pairs by attribute signature, HIKE-style.

    HIKE partitions entities with *similar* (not identical) attributes and
    relationships via hierarchical agglomerative clustering, and the paper
    deploys POWER and Corleone on those partitions.  We reproduce that with
    a greedy agglomeration: signatures join an existing cluster when their
    Jaccard similarity to its representative reaches ``merge_threshold``.
    The resulting partitions mix related entity types — exactly the
    coarseness that makes monotone inference error-prone on heterogeneous
    KBs.  Blocks and members are sorted for determinism.
    """
    from repro.text.similarity import jaccard

    blocks: dict[frozenset[int], list[Pair]] = {}
    for pair in sorted(state.retained):
        blocks.setdefault(state.signatures[pair], []).append(pair)

    representatives: list[frozenset[int]] = []
    clusters: list[list[Pair]] = []
    for signature, members in sorted(blocks.items(), key=lambda kv: (-len(kv[1]), sorted(kv[0]))):
        for i, representative in enumerate(representatives):
            if jaccard(signature, representative) >= merge_threshold:
                clusters[i].extend(members)
                break
        else:
            representatives.append(signature)
            clusters.append(list(members))
    return [sorted(cluster) for cluster in clusters]


def vector_with_prior(state: PreparedState, pair: Pair) -> tuple[float, ...]:
    """The shared feature map of a pair.

    The pipeline's similarity vectors already lead with the label prior
    (:func:`repro.core.vectors.lead_with_prior`), so this is the vector
    itself; the name records the contract that callers get label +
    attribute similarities.
    """
    return state.vector_index.vectors[pair]
