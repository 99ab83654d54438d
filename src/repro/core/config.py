"""Configuration for the Remp pipeline, defaulting to the paper's settings.

Section VIII, Setup: "we uniformly assign k = 4, τ = 0.9 and µ = 10, and use
0.3 as the label similarity threshold"; Section IV-C sets the literal
threshold to 0.9; Section VII-A uses posterior thresholds 0.8 / 0.2 and five
workers per question.

Inferred sets are always found by ζ-bounded Dijkstra, which gives the
same sets as the paper's Floyd–Warshall (:mod:`repro.core.discovery`).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(slots=True)
class RempConfig:
    """Tunable parameters of the Remp pipeline (paper defaults)."""

    #: Label Jaccard threshold for candidate entity matches (Section IV-B).
    label_similarity_threshold: float = 0.3
    #: k-nearest-neighbor cut in partial-order pruning (Algorithm 1).
    k: int = 4
    #: Precision threshold τ for inferring matches (Section VI-A).
    tau: float = 0.9
    #: Questions per human–machine loop (µ in Eq. 14).
    mu: int = 10
    #: Internal literal similarity threshold for simL (Section IV-C).
    literal_threshold: float = 0.9
    #: Posterior thresholds classifying questions as matches / non-matches.
    match_posterior: float = 0.8
    non_match_posterior: float = 0.2
    #: Attribute-signature Jaccard threshold ψ for isolated pairs (VII-B).
    psi: float = 0.9
    #: Random-forest size for the isolated-pair classifier.
    forest_size: int = 100
    #: Seed questions asked per isolated signature group whose neighborhood
    #: has no positive labels yet (0 disables crowd seeding).
    isolated_seed_questions: int = 25
    #: Seeding stops early once this many positive labels exist in a group.
    isolated_seed_positive_target: int = 8
    #: Forest probability above which an isolated pair counts as a match.
    isolated_match_threshold: float = 0.35
    #: Exact-marginalization cap: neighbor groups with more candidate pairs
    #: than this are reduced to the top pairs by prior before enumerating.
    max_exact_pairs: int = 12
    #: Per-value candidate cap used by the reduction.
    max_candidates_per_value: int = 3
    #: Floor/ceiling for estimated relationship consistencies.
    epsilon_floor: float = 0.01
    epsilon_ceiling: float = 0.99
    #: Default consistency for relationship pairs with no support in M_in.
    epsilon_default: float = 0.5
    #: Minimum matched pairs required to trust an MLE estimate.
    min_consistency_support: int = 2
    #: Safety cap on human–machine loops (the paper stops when no benefit
    #: remains; this guards pathological configurations).
    max_loops: int = 200
    #: Hard budget on the number of questions (Definition 1); None = unlimited.
    budget: int | None = None
    #: When a pair is resolved as a match, resolve all competing candidate
    #: pairs sharing an entity as non-matches (the 1:1 ER assumption).
    enforce_one_to_one: bool = True
    #: Prior probability assigned to pairs whose label similarity is unknown.
    default_prior: float = 0.5

    def __post_init__(self) -> None:
        if not 0.0 < self.tau <= 1.0:
            raise ValueError("tau must be in (0, 1]")
        if self.k < 1:
            raise ValueError("k must be at least 1")
        if self.mu < 1:
            raise ValueError("mu must be at least 1")
        if not 0.0 <= self.non_match_posterior < self.match_posterior <= 1.0:
            raise ValueError("need 0 <= non_match_posterior < match_posterior <= 1")
