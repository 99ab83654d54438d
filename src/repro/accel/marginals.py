"""Exact Eq. 9 marginals as a bitmask weighted permanent (accel kernel).

The marginal of a candidate pair over all partial 1:1 matchings is a
ratio of two matching-polynomial sums — a weighted-permanent problem.
The reference DFS enumerates every matching (2^n leaves); this kernel
evaluates the *same sum* as a dynamic program over value groups:

* pairs are grouped by the side with **more** distinct values (so the
  mask covers the smaller side), in first-occurrence order;
* ``S(g, mask)`` — the weight of all matchings using only groups
  ``g..`` whose small-side values avoid ``mask`` — satisfies::

      S(g, mask) = S(g+1, mask)
                 + Σ_{i ∈ group g, bit_i ∉ mask} odds_i · S(g+1, mask|bit_i)

  (exclude branch first, then group members in input order — the pinned
  float accumulation order);
* the total is ``S(0, ∅)`` and the numerator of pair *i*'s marginal is
  ``odds_i · S(0, bit_i)`` evaluated with pair *i*'s whole group
  skipped (its large-side value is consumed by *i* itself).

The memoized DP below and the unmemoized reference recursion
(:func:`repro.accel.reference.exact_marginal_map`) walk the identical
expression tree in the identical order; memoization only collapses
*repeated subtrees*, whose floats are pure functions of ``(g, mask)``,
so the two are byte-identical by construction (the accel equivalence
suite pins it).  The DP visits at most ``groups · 2^min(|L|,|R|)``
states instead of every matching.
"""

from __future__ import annotations

from repro.obs import runtime as obs

Pair = tuple[str, str]


class MatchingPlan:
    """Group/bit layout of one pair list, reusable across evaluations."""

    __slots__ = ("groups", "pair_group", "pair_bits")

    def __init__(
        self,
        groups: list[list[int]],
        pair_group: list[int],
        pair_bits: list[int],
    ) -> None:
        self.groups = groups
        self.pair_group = pair_group
        self.pair_bits = pair_bits


def matching_plan(pairs: list[Pair]) -> MatchingPlan:
    """Group pairs by the larger value side; bit-index the smaller side.

    Group order and within-group order both follow first occurrence in
    ``pairs``, which fixes the summation order of every evaluation.
    """
    lefts: dict[str, int] = {}
    rights: dict[str, int] = {}
    left_count: dict[str, int] = {}
    right_count: dict[str, int] = {}
    for left, right in pairs:
        lefts.setdefault(left, len(lefts))
        rights.setdefault(right, len(rights))
        left_count[left] = left_count.get(left, 0) + 1
        right_count[right] = right_count.get(right, 0) + 1
    if len(rights) <= len(lefts):
        group_index, mask_count, mask_side = lefts, right_count, 1
    else:
        group_index, mask_count, mask_side = rights, left_count, 0
    # A mask-side value held by a single pair can never conflict, so it
    # gets bit 0: ``mask & 0`` is always false and ``mask | 0`` is
    # ``mask`` — the evaluated expressions are float-identical to giving
    # it a private bit (which no other pair would ever test), while the
    # memoized DP collapses the states that private bit would split.
    bit_index: dict[str, int] = {}
    groups: list[list[int]] = [[] for _ in range(len(group_index))]
    pair_group: list[int] = []
    pair_bits: list[int] = []
    for i, pair in enumerate(pairs):
        group = group_index[pair[1 - mask_side]]
        groups[group].append(i)
        pair_group.append(group)
        value = pair[mask_side]
        if mask_count[value] < 2:
            pair_bits.append(0)
        else:
            bit = bit_index.get(value)
            if bit is None:
                bit = bit_index[value] = 1 << len(bit_index)
            pair_bits.append(bit)
    return MatchingPlan(groups, pair_group, pair_bits)


def _sum_dp(
    plan: MatchingPlan,
    odds: list[float],
    skip: int,
    seed_mask: int,
    memo: dict[tuple[int, int], float],
) -> float:
    """``S(0, seed_mask)`` with group ``skip`` left out, memoized on ``(g, mask)``.

    ``memo`` is valid for one ``skip`` value (the state value depends on
    it) and is shared across seed masks — every pair in a skipped group
    reuses the subtrees of its siblings.
    """
    groups, pair_bits = plan.groups, plan.pair_bits
    num_groups = len(groups)

    def sum_from(g: int, mask: int) -> float:
        if g == num_groups:
            return 1.0
        if g == skip:
            return sum_from(g + 1, mask)
        key = (g, mask)
        value = memo.get(key)
        if value is None:
            acc = sum_from(g + 1, mask)
            for i in groups[g]:
                bit = pair_bits[i]
                if not mask & bit:
                    acc = acc + odds[i] * sum_from(g + 1, mask | bit)
            memo[key] = value = acc
        return value

    return sum_from(0, seed_mask)


def _marginals_dp(pairs: list[Pair], odds: list[float]) -> dict[Pair, float]:
    """Memoized permanent DP — byte-identical to the reference recursion."""
    plan = matching_plan(pairs)
    total = _sum_dp(plan, odds, -1, 0, {})
    if total <= 0.0:
        return {p: 0.0 for p in pairs}
    memo_by_skip: dict[int, dict[tuple[int, int], float]] = {}
    result: dict[Pair, float] = {}
    for i, pair in enumerate(pairs):
        skip = plan.pair_group[i]
        memo = memo_by_skip.setdefault(skip, {})
        numerator = _sum_dp(plan, odds, skip, plan.pair_bits[i], memo)
        result[pair] = odds[i] * numerator / total
    return result


def exact_marginal_map(pairs: list[Pair], odds: list[float]) -> dict[Pair, float]:
    """Marginal ``Pr[p ∈ M]`` per pair, given each pair's prior odds."""
    if not pairs:
        return {}
    with obs.timed("kernel.marginals"):
        return _marginals_dp(pairs, odds)
