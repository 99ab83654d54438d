"""Relational match propagation (Sections V-B and V-C).

**Neighbor propagation** (Eqs. 6–9).  Given a match (u₁, u₂) and a
relationship pair (r₁, r₂), the posterior that a candidate value pair
(u₁′, u₂′) matches is obtained by marginalizing over all partial 1:1
matchings ``M`` between the value sets.  Each matching's weight factorizes
(after dividing out constants shared by every matching) as::

    w(M) = γ^|M| · Π_{p∈M} odds(p),   γ = ε₁ε₂ / ((1−ε₁)(1−ε₂))

where ``odds(p)`` is the prior odds of pair ``p``.  The exact marginal is a
sum over matchings containing ``p`` divided by the sum over all matchings;
groups larger than the configured cap are first reduced to the strongest
candidates per value.

**Distant propagation** (Eq. 10) chains neighbor propagation along a path
under the Markov assumption, giving a lower bound whose maximum over paths
is found by shortest-path search in −log space (see
:mod:`repro.core.discovery`); this module builds the probabilistic ER graph
whose edges carry the one-hop conditional probabilities.
"""

from __future__ import annotations

from repro.core.config import RempConfig
from repro.core.consistency import Consistency
from repro.core.er_graph import ERGraph, RelPair
from repro.kb.model import KnowledgeBase
from repro.obs import runtime as obs

Pair = tuple[str, str]

_PRIOR_EPS = 1e-6


def _odds(prior: float) -> float:
    clamped = min(1.0 - _PRIOR_EPS, max(_PRIOR_EPS, prior))
    return clamped / (1.0 - clamped)


def _reduce_group(
    pairs: list[Pair],
    priors: dict[Pair, float],
    max_pairs: int,
    per_value: int,
) -> list[Pair]:
    """Shrink an oversized candidate group before exact enumeration.

    Keeps the ``per_value`` strongest candidates for every left and right
    value, then caps the total at ``max_pairs`` by prior.  This preserves
    the pairs whose marginals matter (weak candidates have near-zero
    posterior anyway).  Every cut is counted (``propagation.group.reduced``
    and ``propagation.group.pairs_dropped``), since dropped pairs get
    marginal 0.0.
    """
    if len(pairs) <= max_pairs:
        return pairs
    by_left: dict[str, list[Pair]] = {}
    by_right: dict[str, list[Pair]] = {}
    for pair in pairs:
        by_left.setdefault(pair[0], []).append(pair)
        by_right.setdefault(pair[1], []).append(pair)
    kept: set[Pair] = set()
    for bucket in list(by_left.values()) + list(by_right.values()):
        bucket.sort(key=lambda p: (-priors.get(p, 0.0), p))
        kept.update(bucket[:per_value])
    # Ties on prior break on the pair itself: ``kept`` is a set, and a
    # prior-only key would cut at ``max_pairs`` in hash-seed-dependent
    # iteration order — different processes would reduce differently.
    reduced = sorted(kept, key=lambda p: (-priors.get(p, 0.0), p))[:max_pairs]
    obs.count("propagation.group.reduced")
    obs.count("propagation.group.pairs_dropped", len(pairs) - len(reduced))
    return reduced


def _marginals_exact(
    pairs: list[Pair],
    priors: dict[Pair, float],
    gamma: float,
) -> dict[Pair, float]:
    """Exact marginal Pr[p ∈ M] over all partial 1:1 matchings.

    The sums over matchings are weighted permanents, evaluated by the
    memoized grouped recursion of :mod:`repro.accel.marginals`.  It
    walks the same expression tree as the unmemoized reference in
    :mod:`repro.accel.reference`, so the two return bit-equal floats.
    """
    from repro.accel.marginals import exact_marginal_map

    odds = [_odds(priors.get(p, 0.5)) * gamma for p in pairs]
    return exact_marginal_map(pairs, odds)


def neighbor_marginals(
    group: set[Pair],
    priors: dict[Pair, float],
    consistency: Consistency,
    config: RempConfig | None = None,
) -> dict[Pair, float]:
    """Eq. 9 posteriors for one neighbor group of a matched vertex.

    Pairs dropped by the size reduction get marginal 0.0 (they are weak
    candidates crowded out by stronger ones).
    """
    config = config or RempConfig()
    pairs = sorted(group)
    reduced = _reduce_group(pairs, priors, config.max_exact_pairs, config.max_candidates_per_value)
    marginals = _marginals_exact(reduced, priors, consistency.gamma())
    return {p: marginals.get(p, 0.0) for p in pairs}


class ProbabilisticERGraph:
    """ER graph whose directed edges carry Pr[m_{v'} | m_v].

    When several relationship-pair labels connect the same two vertices,
    the strongest evidence (maximum probability) is kept, matching the
    lower-bound semantics of distant propagation.
    """

    def __init__(self) -> None:
        self.edge_probs: dict[Pair, dict[Pair, float]] = {}

    def set_edge(self, source: Pair, target: Pair, probability: float) -> None:
        if probability <= 0.0 or source == target:
            return
        targets = self.edge_probs.setdefault(source, {})
        if probability > targets.get(target, 0.0):
            targets[target] = probability

    def probability(self, source: Pair, target: Pair) -> float:
        if source == target:
            return 1.0
        return self.edge_probs.get(source, {}).get(target, 0.0)

    @property
    def num_edges(self) -> int:
        return sum(len(t) for t in self.edge_probs.values())


def combined_edge_row(vertex: Pair, label_marginals) -> dict[Pair, float]:
    """Max-combine per-label marginals into one vertex's out-edge row.

    Mirrors :meth:`ProbabilisticERGraph.set_edge` exactly — self-edges and
    non-positive probabilities are dropped, the strongest label wins — and
    preserves the first-encounter insertion order, which downstream float
    accumulations (shortest-path relaxation, benefit sums) observe.
    Shared with the incremental propagator
    (:mod:`repro.accel.propagation`), which rebuilds rows vertex-by-vertex:
    one code path guarantees identical rows either way.
    """
    row: dict[Pair, float] = {}
    for marginals in label_marginals:
        for target, probability in marginals.items():
            if probability <= 0.0 or target == vertex:
                continue
            if probability > row.get(target, 0.0):
                row[target] = probability
    return row


def build_probabilistic_graph(
    graph: ERGraph,
    kb1: KnowledgeBase,
    kb2: KnowledgeBase,
    priors: dict[Pair, float],
    consistencies: dict[RelPair, Consistency],
    config: RempConfig | None = None,
    default_consistency: Consistency | None = None,
) -> ProbabilisticERGraph:
    """Compute one-hop conditional probabilities for every ER-graph edge.

    For each vertex ``v``, each neighbor group is treated as if ``v`` were
    a match and Eq. 9 marginals become the edge probabilities ``v → p``.
    """
    config = config or RempConfig()
    fallback = default_consistency or Consistency(
        config.epsilon_default, config.epsilon_default, 0
    )
    prob_graph = ProbabilisticERGraph()
    for vertex, by_label in graph.groups.items():
        row = combined_edge_row(
            vertex,
            (
                neighbor_marginals(group, priors, consistencies.get(label, fallback), config)
                for label, group in by_label.items()
            ),
        )
        if row:
            prob_graph.edge_probs[vertex] = row
    return prob_graph
