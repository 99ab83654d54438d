"""Partial-order based pruning — Algorithm 1 (Section IV-D).

For each entity, candidates whose similarity vector is strictly dominated
by at least ``k`` sibling candidates cannot be among that entity's top-k
matches under *any* linear extension of the partial order, so they are
pruned.  Pruning is applied in both directions (KB1 entities, then KB2
entities); the survivors form the retained match set ``M_rd``.
"""

from __future__ import annotations

from functools import cache
from typing import Callable

from repro.accel.dominance import (
    _MIN_NUMPY_BLOCK,
    PackedVectors,
    any_strict_dominator,
)
from repro.core.vectors import VectorIndex, strictly_dominates

Pair = tuple[str, str]


def _prune_one_way(
    pairs: set[Pair],
    index: VectorIndex,
    k: int,
    side: int,
    pack: Callable[[], PackedVectors],
) -> set[Pair]:
    """One PruningInOneWay pass of Algorithm 1 over the given side.

    ``side`` 0 groups blocks by the KB1 entity, 1 by the KB2 entity.
    Blocks of at least ``_MIN_NUMPY_BLOCK`` pairs are sliced out of the
    packed matrix ``pack()`` returns and dominators counted (clipped at
    ``k``) by broadcast comparison; smaller blocks, where NumPy's call
    overhead dominates, take the early-exit loop.  Both keep exactly the
    pairs with ``rank < k``.
    """
    blocks: dict[str, list[Pair]] = {}
    for pair in pairs:
        blocks.setdefault(pair[side], []).append(pair)

    retained: set[Pair] = set()
    for block in blocks.values():
        if len(block) <= k:
            retained.update(block)
            continue
        vectors = index.vectors
        if len(block) >= _MIN_NUMPY_BLOCK:
            ranks = pack().counts(block, cap=k)
            retained.update(pair for pair, rank in zip(block, ranks) if rank < k)
            continue
        keep = []
        for pair in block:
            vector = vectors[pair]
            rank = 0
            for other in block:
                if other != pair and strictly_dominates(vectors[other], vector):
                    rank += 1
                    if rank >= k:
                        break
            if rank < k:
                keep.append(pair)
        retained.update(keep)
    return retained


def partial_order_pruning(candidates: set[Pair], index: VectorIndex, k: int = 4) -> set[Pair]:
    """Algorithm 1: retain only pairs that can be a top-k match on both sides.

    Pairs dominated by ``k`` or more siblings in either direction are
    removed.  Pairs dominated by a pruned pair are necessarily also pruned
    (their ``min_rank`` is at least as large), which the rank computation
    captures directly.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    # One matrix for both passes, packed only once a block is large
    # enough to use it (incremental re-prunes over a few dirty closures
    # never pay the whole-index pack) and dropped on return.
    pack = cache(lambda: PackedVectors(index.vectors))
    retained = _prune_one_way(candidates, index, k, side=0, pack=pack)
    retained = _prune_one_way(retained, index, k, side=1, pack=pack)
    return retained


def pruning_error_rate(
    retained: set[Pair],
    index: VectorIndex,
    gold: set[Pair],
) -> float:
    """Error rate of the optimal monotone classifier on the retained pairs.

    Following Tao (PODS'18), a pair is an *error witness* when a true match
    is strictly dominated by a non-match: no monotone classifier can label
    both correctly.  We count the minimum number of pairs any monotone
    classifier must get wrong, via the standard greedy sweep: a match is
    wrong when some non-match dominating it is classified as a match, so we
    count matches strictly dominated by non-matches (each such conflicting
    pair contributes one forced error on its smaller side).
    """
    if not retained:
        return 0.0
    vectors = index.vectors
    matches = [p for p in retained if p in gold]
    non_matches = [p for p in retained if p not in gold]
    dominated = any_strict_dominator(
        [vectors[m] for m in matches], [vectors[nm] for nm in non_matches]
    )
    return sum(dominated) / len(retained)
