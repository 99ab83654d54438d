"""Vectorized candidate scoring and interned signatures (accel kernels).

**Scoring** (``kernel.candidates``): the reference ``candidates.score``
loop counts shared tokens per candidate pair with one Python dict
operation per (entity, token, partner) posting hit.  The kernel turns
the same join into array work: token postings become int64 id arrays,
the full (entity1, partner) hit stream is materialized per chunk, and
one ``np.unique`` over combined keys yields every pair's intersection
count.  The Jaccard coefficient ``shared / (|T1| + |T2| − shared)`` is
a ratio of small integers — IEEE-754 doubles represent it identically
however it is computed — and the serializers sort candidate docs, so
equal contents are byte-identical documents.

**Signatures** (``kernel.signatures``): the reference signature loop
(:func:`repro.accel.reference.signatures`) calls both KBs' attribute
accessors once per (retained pair, attribute match).  The kernel
computes one presence bitmask per *entity* and side (entities repeat
across many pairs), ANDs two masks per pair, and interns one frozenset
per distinct mask — identical frozensets, shared instead of
duplicated.
"""

from __future__ import annotations

import numpy as np

from repro.kb.model import KnowledgeBase
from repro.obs import runtime as obs

Pair = tuple[str, str]

#: Below this many labeled entities on either side the Python loop wins.
_MIN_ENTITIES = 64

#: Join hits buffered per chunk before flushing through ``np.unique``.
_CHUNK_HITS = 1 << 21


def score_candidates(
    tokens1: dict[str, frozenset[str]],
    tokens2: dict[str, frozenset[str]],
    inverted2: dict[str, set[str]],
    threshold: float,
    min_entities: int = _MIN_ENTITIES,
) -> dict[Pair, float] | None:
    """Scored ``{(entity1, entity2): sim}`` map, or ``None`` below the cutoff.

    ``None`` hands worlds with fewer than ``min_entities`` labeled
    entities on either side to the caller's dict loop, which wins there.

    Entries come out grouped by ``tokens1`` iteration order; the caller's
    containers (a set and a dict) make entry order immaterial.
    ``min_entities`` exists for the equivalence suite, which exercises
    the kernel on worlds below the production cutoff.
    """
    if len(tokens1) < min_entities or len(tokens2) < min_entities:
        return None
    with obs.timed("kernel.candidates"):
        entities1 = list(tokens1)
        entities2 = list(tokens2)
        index2 = {entity: j for j, entity in enumerate(entities2)}
        sizes1 = np.fromiter(
            (len(tokens) for tokens in tokens1.values()), np.int64, count=len(tokens1)
        )
        sizes2 = np.fromiter(
            (len(tokens) for tokens in tokens2.values()), np.int64, count=len(tokens2)
        )
        postings = {
            token: np.fromiter((index2[e] for e in members), np.int64, count=len(members))
            for token, members in inverted2.items()
        }

        width = len(entities2)
        results: dict[Pair, float] = {}

        def flush(owner_ids: list[int], owner_hits: list[int], chunks: list) -> None:
            hits2 = np.concatenate(chunks)
            hits1 = np.repeat(
                np.asarray(owner_ids, np.int64), np.asarray(owner_hits, np.int64)
            )
            keys, shared = np.unique(hits1 * width + hits2, return_counts=True)
            i = keys // width
            j = keys - i * width
            sims = shared / (sizes1[i] + sizes2[j] - shared)
            keep = np.nonzero(sims >= threshold)[0]
            # ``tolist`` materializes native ints/floats in one pass —
            # float64 → Python float is exact, so sims keep their bits —
            # and the map/zip/update chain keeps the fill loop in C.
            pairs = zip(
                map(entities1.__getitem__, i[keep].tolist()),
                map(entities2.__getitem__, j[keep].tolist()),
            )
            results.update(zip(pairs, sims[keep].tolist()))

        owner_ids: list[int] = []
        owner_hits: list[int] = []
        chunks: list = []
        pending = 0
        for i1, tokens in enumerate(tokens1.values()):
            hits = 0
            for token in tokens:
                arr = postings.get(token)
                if arr is not None and arr.size:
                    chunks.append(arr)
                    hits += arr.size
            if hits:
                owner_ids.append(i1)
                owner_hits.append(hits)
                pending += hits
            if pending >= _CHUNK_HITS:
                flush(owner_ids, owner_hits, chunks)
                owner_ids, owner_hits, chunks, pending = [], [], [], 0
        if pending:
            flush(owner_ids, owner_hits, chunks)
        return results


def intern_signatures(
    kb1: KnowledgeBase,
    kb2: KnowledgeBase,
    retained,
    attribute_matches,
) -> dict[Pair, frozenset[int]]:
    """Signature map over ``retained``.

    Key order follows ``retained`` iteration order — the same order the
    reference loop produces.
    """
    with obs.timed("kernel.signatures"):
        masks1: dict[str, int] = {}
        masks2: dict[str, int] = {}
        for pair in retained:
            masks1.setdefault(pair[0], 0)
            masks2.setdefault(pair[1], 0)
        for i, match in enumerate(attribute_matches):
            bit = 1 << i
            for entity in masks1:
                if kb1.attribute_values(entity, match.attr1):
                    masks1[entity] |= bit
            for entity in masks2:
                if kb2.attribute_values(entity, match.attr2):
                    masks2[entity] |= bit
        interned: dict[int, frozenset[int]] = {}
        signatures: dict[Pair, frozenset[int]] = {}
        for pair in retained:
            mask = masks1[pair[0]] & masks2[pair[1]]
            signature = interned.get(mask)
            if signature is None:
                signature = interned[mask] = frozenset(
                    i for i in range(len(attribute_matches)) if mask >> i & 1
                )
            signatures[pair] = signature
        return signatures
