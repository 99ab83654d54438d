"""Relationship-consistency estimation (Section V-A).

For a relationship pair (r₁, r₂), the consistencies ε₁ and ε₂ are the
probabilities that a value of r₁ (resp. r₂) on a matched entity has a
matching counterpart in the other KB's value set.  They are estimated by
maximum likelihood over the matched pairs, where the number of matching
value pairs ``L`` is latent (Eqs. 4–5).

The paper maximizes the piecewise-continuous profile likelihood directly.
This module uses coordinate ascent instead: given ε, the optimal integer
``L`` for each pair maximizes ``C(n₁,L)·C(n₂,L)·ζ^L`` (with
``ζ = ε₁ε₂ / ((1−ε₁)(1−ε₂))``), and given all ``L`` the binomial MLE is
``εᵢ = ΣL / Σnᵢ``.  Observed matches among the values give a lower bound on
each ``L``, anchoring the latent search.  Coordinate ascent is a local
method, not an equivalent of the direct maximization: it stops at the
first fixed point it reaches from the observed fraction, and a fine grid
over (ε₁, ε₂) finds a higher likelihood for some labels (10 of 23
estimations on ``imdb_yago``, seed 0).

Two fallbacks are counted in the active run scope: each label that falls
back to the neutral default for lack of support
(``consistency.default_fallback``) and each estimation that exhausts
``max_iterations`` before the latent counts settle
(``consistency.not_converged``).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple

from repro.core.er_graph import RelPair, value_sets
from repro.kb.model import KnowledgeBase
from repro.obs import runtime as obs

Pair = tuple[str, str]


@dataclass(frozen=True, slots=True)
class Consistency:
    """Estimated (ε₁, ε₂) for one relationship-pair label."""

    epsilon1: float
    epsilon2: float
    support: int

    def gamma(self) -> float:
        """Odds product ζ = ε₁ε₂ / ((1−ε₁)(1−ε₂)) used in propagation."""
        return (self.epsilon1 * self.epsilon2) / (
            (1.0 - self.epsilon1) * (1.0 - self.epsilon2)
        )


class _Observation(NamedTuple):
    """One matched pair's evidence: value-set sizes and observed matches.

    The tuple is the observation's shape: the ascent treats two
    observations of one shape alike, so a label's evidence is a count
    per shape (:func:`shape_counts`).
    """

    n1: int
    n2: int
    observed: int  # lower bound on the latent L


def shape_counts(observations: Iterable[_Observation]) -> Counter[_Observation]:
    """How many observations have each shape, skipping those with both
    value sets empty (they carry no evidence)."""
    return Counter(o for o in observations if o.n1 > 0 or o.n2 > 0)


def _observed_match_count(
    values1: set[str], values2: set[str], matches: set[Pair]
) -> int:
    """Size of a greedy 1:1 matching among known matches in N₁ × N₂."""
    used2: set[str] = set()
    count = 0
    for v1 in sorted(values1):
        for v2 in sorted(values2):
            if v2 not in used2 and (v1, v2) in matches:
                used2.add(v2)
                count += 1
                break
    return count


def _best_latent(n1: int, n2: int, lower: int, zeta: float) -> int:
    """argmax over L in [lower, min(n1, n2)] of C(n1,L)·C(n2,L)·ζ^L."""
    upper = min(n1, n2)
    if upper <= lower:
        return min(lower, upper)
    log_zeta = math.log(zeta) if zeta > 0 else -math.inf
    best_l, best_ll = lower, -math.inf
    for latent in range(lower, upper + 1):
        ll = (
            math.log(math.comb(n1, latent))
            + math.log(math.comb(n2, latent))
            + latent * log_zeta
        )
        if ll > best_ll:
            best_ll = ll
            best_l = latent
    return best_l


def estimate_consistency(
    observations: list[_Observation],
    epsilon_floor: float = 0.01,
    epsilon_ceiling: float = 0.99,
    max_iterations: int = 30,
) -> Consistency:
    """Coordinate-ascent MLE for one relationship pair's observations.

    Counts the observations per shape and runs
    :func:`estimate_from_shapes` on the counts.
    """
    return estimate_from_shapes(
        shape_counts(observations), epsilon_floor, epsilon_ceiling, max_iterations
    )


def estimate_from_shapes(
    shapes: Mapping[_Observation, int],
    epsilon_floor: float = 0.01,
    epsilon_ceiling: float = 0.99,
    max_iterations: int = 30,
) -> Consistency:
    """Coordinate-ascent MLE from a count per observation shape.

    Alternates the closed-form latent assignment and the binomial ε update
    until the latent counts stabilize, or for ``max_iterations`` rounds
    (counted as ``consistency.not_converged``).  The fixed point is a
    local maximum of the profile likelihood, which need not be the
    global one the paper's direct maximization finds.

    An observation's latent count depends only on its shape (n₁, n₂,
    observed) and ζ, and every total is an integer sum, so the ascent
    runs once per distinct shape, weighted by how many observations
    share it.  ``shapes`` holds positive counts of shapes with a
    non-empty value set (:func:`shape_counts`).
    """
    if not shapes:
        return Consistency(0.5, 0.5, 0)
    b1 = sum(n1 * count for (n1, _, _), count in shapes.items())
    b2 = sum(n2 * count for (_, n2, _), count in shapes.items())

    def clamp(x: float) -> float:
        return min(epsilon_ceiling, max(epsilon_floor, x))

    total_observed = sum(observed * count for (_, _, observed), count in shapes.items())
    eps1 = clamp(total_observed / b1 if b1 else 0.5)
    eps2 = clamp(total_observed / b2 if b2 else 0.5)
    latents = {shape: shape[2] for shape in shapes}
    for _ in range(max_iterations):
        zeta = (eps1 * eps2) / ((1.0 - eps1) * (1.0 - eps2))
        new_latents = {
            (n1, n2, observed): _best_latent(n1, n2, observed, zeta) if n1 and n2 else 0
            for n1, n2, observed in shapes
        }
        total = sum(new_latents[shape] * count for shape, count in shapes.items())
        new_eps1 = clamp(total / b1 if b1 else 0.5)
        new_eps2 = clamp(total / b2 if b2 else 0.5)
        converged = new_latents == latents and (
            abs(new_eps1 - eps1) < 1e-9 and abs(new_eps2 - eps2) < 1e-9
        )
        latents, eps1, eps2 = new_latents, new_eps1, new_eps2
        if converged:
            break
    else:
        obs.count("consistency.not_converged")
    return Consistency(eps1, eps2, sum(shapes.values()))


def label_consistency(
    shapes: Mapping[_Observation, int],
    min_support: int,
    epsilon_default: float,
    epsilon_floor: float,
    epsilon_ceiling: float,
) -> Consistency:
    """One label's ε from its count per observation shape, or the default.

    A label with fewer than ``min_support`` informative observations
    (both value sets non-empty) gets ``epsilon_default`` for both ε,
    counted as ``consistency.default_fallback``.
    """
    informative = sum(count for (n1, n2, _), count in shapes.items() if n1 and n2)
    if informative < min_support:
        obs.count("consistency.default_fallback")
        return Consistency(epsilon_default, epsilon_default, informative)
    return estimate_from_shapes(shapes, epsilon_floor, epsilon_ceiling)


def estimate_all_consistencies(
    kb1: KnowledgeBase,
    kb2: KnowledgeBase,
    labels: set[RelPair],
    matches: set[Pair],
    min_support: int = 2,
    epsilon_default: float = 0.5,
    epsilon_floor: float = 0.01,
    epsilon_ceiling: float = 0.99,
) -> dict[RelPair, Consistency]:
    """Estimate ε for every relationship-pair label from the current matches.

    ``matches`` plays the role of ``M_in`` on the first call and of the
    accumulated confirmed matches on later re-estimations (Section VII-A).
    Labels with fewer than ``min_support`` informative matched pairs fall
    back to a neutral default (:func:`label_consistency`).
    """
    result: dict[RelPair, Consistency] = {}
    match_list = list(matches)
    for label in labels:
        shapes: Counter[_Observation] = Counter()
        for entity1, entity2 in match_list:
            values1, values2 = value_sets(kb1, kb2, entity1, entity2, label)
            if not values1 and not values2:
                continue
            observed = _observed_match_count(values1, values2, matches)
            shapes[_Observation(len(values1), len(values2), observed)] += 1
        result[label] = label_consistency(
            shapes, min_support, epsilon_default, epsilon_floor, epsilon_ceiling
        )
    return result
