"""Paper-faithful reference kernels: the oracles the accel layer is pinned to.

Every accel kernel is the only product path for its stage.  The code it
replaced lives on here so the equivalence suite (``tests/test_accel.py``)
and the kernel benches can keep comparing the product against it.  No
module under :mod:`repro` imports this one.

* :func:`dominance_counts` — Algorithm 1's strict-dominance count per
  vector, one O(|B|²·d) loop (pins
  :class:`repro.accel.dominance.PackedVectors`);
* :func:`er_graph_groups` — Definition 2's value-set-product ER-graph
  construction, :func:`repro.core.er_graph.vertex_groups` per vertex
  (pins :func:`repro.accel.er_graph.accel_groups`);
* :func:`signatures` — the per-pair attribute-signature loop (pins
  :func:`repro.accel.candidates.intern_signatures`);
* :func:`exact_marginal_map` — Eq. 9's unmemoized permanent recursion
  (pins the memoized DP behind
  :func:`repro.accel.marginals.exact_marginal_map`);
* :func:`estimate_consistency` — the ε coordinate ascent once per
  observation (pins the per-shape ascent of
  :func:`repro.core.consistency.estimate_consistency`), and
  :func:`estimate_from_shapes`, the same ascent over the observations a
  shape count stands for (pins
  :func:`repro.core.consistency.estimate_from_shapes`, which the loop
  runs on the shape counts it keeps);
* :class:`RebuildRemp` — a :class:`repro.core.Remp` whose loop rebuilds
  the probabilistic graph, reruns Dijkstra and filters every Eq. 12
  restricted set and the askable questions from scratch every loop
  (pins :class:`repro.accel.propagation.IncrementalPropagator` and the
  restricted sets, askable gains and gain bands
  :class:`repro.core.pipeline.LoopState` keeps across loops), reached
  through the ``Remp._make_loop_state`` seam; the only full rebuild, as
  the product loop always propagates incrementally;
* :func:`greedy_question_selection` — Algorithm 3's lazy greedy over
  one heap of every candidate, each initial gain summed afresh (pins
  the stored gain bands
  :func:`repro.core.selection.greedy_question_selection` admits to its
  heap band by band).
* :func:`dirty_closure` — the stream splice's dirty region as one
  union–find over every old ∪ new candidate pair (pins the by-entity
  walk of :func:`repro.stream.incremental._dirty_closure`);
* :func:`entity_closure_components` — a prepared state's entity-closure
  components as one :class:`UnionFind` over every retained pair and
  ER-graph edge (pins the by-entity and graph walk of
  :func:`repro.partition.partitioner.closure_components`, and the
  components a stream splice keeps from its parent's);
* :func:`kb_to_doc` and :func:`kb_pair_fingerprint` — a KB's document
  sorted afresh from its indexes on every call, and the digest of a
  pair's (pin the canonical content
  :class:`repro.kb.model.KnowledgeBase` keeps across mutations, and
  :func:`repro.kb.io.kb_to_doc` and
  :func:`repro.kb.io.kb_pair_fingerprint`, which read it).

:func:`reference_kernels` rebinds the product's kernel names to these
references for the length of a ``with`` block, so a whole
``Remp.prepare`` or ``Remp.run`` inside it takes the reference path.
"""

from __future__ import annotations

import hashlib
import heapq
import json
from contextlib import contextmanager
from typing import Mapping, Sequence

import repro.accel.candidates
import repro.accel.er_graph
import repro.accel.marginals
import repro.core.attributes
import repro.core.candidates
import repro.core.consistency
import repro.core.pipeline
import repro.core.pruning
import repro.core.vectors
from repro.accel.dominance import _any_dominator_python
from repro.accel.marginals import MatchingPlan, matching_plan
from repro.core.consistency import (
    Consistency,
    _best_latent,
    _Observation,
    estimate_all_consistencies,
)
from repro.core.discovery import dijkstra_inferred_sets
from repro.core.er_graph import vertex_groups
from repro.core.isolated import Signature, attribute_signature
from repro.core.pipeline import LoopState, Remp
from repro.core.propagation import build_probabilistic_graph
from repro.core.selection import GainBands, gain_bands
from repro.kb.model import KnowledgeBase
from repro.obs import runtime as obs
from repro.text.literal import literal_set_similarity

Pair = tuple[str, str]
RelPair = tuple[str, str]
Vector = tuple[float, ...]


# ----------------------------------------------------------------------
# Algorithm 1: strict-dominance counts
# ----------------------------------------------------------------------
def dominance_counts(vectors: Sequence[Vector], cap: int | None) -> list[int]:
    """Per vector, how many others strictly dominate it (clipped at ``cap``)."""
    counts = []
    for vector in vectors:
        rank = 0
        for other in vectors:
            if other != vector and all(x >= y for x, y in zip(other, vector)):
                rank += 1
                if cap is not None and rank >= cap:
                    break
        counts.append(rank)
    return counts


class _LoopPack:
    """Stands in for ``PackedVectors``: every block through the loop."""

    def __init__(self, vectors: dict):
        self._vectors = vectors

    def counts(self, pairs: Sequence, cap: int | None = None) -> list[int]:
        return dominance_counts([self._vectors[pair] for pair in pairs], cap)


# ----------------------------------------------------------------------
# Definition 2: the ER graph's neighbor groups
# ----------------------------------------------------------------------
def er_graph_groups(
    kb1: KnowledgeBase, kb2: KnowledgeBase, vertices
) -> dict[Pair, dict[RelPair, set[Pair]]]:
    """Probe every cell of each vertex's value-set product against ``vertices``."""
    groups: dict[Pair, dict[RelPair, set[Pair]]] = {}
    for vertex in vertices:
        by_label = vertex_groups(kb1, kb2, vertex, vertices)
        if by_label:
            groups[vertex] = by_label
    return groups


# ----------------------------------------------------------------------
# Section VII-B: attribute signatures
# ----------------------------------------------------------------------
def signatures(kb1, kb2, retained, attribute_matches) -> dict[Pair, Signature]:
    """Probe both KBs' attribute accessors once per (pair, attribute match)."""
    result: dict[Pair, Signature] = {}
    for pair in retained:
        presence = tuple(
            bool(kb1.attribute_values(pair[0], match.attr1))
            and bool(kb2.attribute_values(pair[1], match.attr2))
            for match in attribute_matches
        )
        result[pair] = attribute_signature(presence)
    return result


# ----------------------------------------------------------------------
# Eq. 9: exact marginals over all partial 1:1 matchings
# ----------------------------------------------------------------------
def _sum_reference(
    plan: MatchingPlan, odds: list[float], skip: int, seed_mask: int
) -> float:
    """``S(0, seed_mask)`` with group ``skip`` left out — unmemoized."""
    groups, pair_bits = plan.groups, plan.pair_bits
    num_groups = len(groups)

    def sum_from(g: int, mask: int) -> float:
        if g == num_groups:
            return 1.0
        if g == skip:
            return sum_from(g + 1, mask)
        acc = sum_from(g + 1, mask)
        for i in groups[g]:
            bit = pair_bits[i]
            if not mask & bit:
                acc = acc + odds[i] * sum_from(g + 1, mask | bit)
        return acc

    return sum_from(0, seed_mask)


def exact_marginal_map(pairs: list[Pair], odds: list[float]) -> dict[Pair, float]:
    """The permanent recursion of :mod:`repro.accel.marginals`, no memoization."""
    plan = matching_plan(pairs)
    total = _sum_reference(plan, odds, -1, 0)
    if total <= 0.0:
        return {p: 0.0 for p in pairs}
    return {
        pair: odds[i] * _sum_reference(plan, odds, plan.pair_group[i], plan.pair_bits[i]) / total
        for i, pair in enumerate(pairs)
    }


# ----------------------------------------------------------------------
# simL and candidate scoring
# ----------------------------------------------------------------------
class _ReferenceScorer:
    """Stands in for ``LiteralScorer``: plain ``literal_set_similarity``."""

    def __init__(self, threshold: float):
        self.threshold = threshold

    def set_similarity(self, values1, values2) -> float:
        return literal_set_similarity(values1, values2, self.threshold)


def _decline_scoring(*args, **kwargs) -> None:
    """Decline like a below-cutoff world, so the dict loop scores every pair."""
    return None


# ----------------------------------------------------------------------
# Section V-A: ε coordinate ascent
# ----------------------------------------------------------------------
def estimate_consistency(
    observations: list[_Observation],
    epsilon_floor: float = 0.01,
    epsilon_ceiling: float = 0.99,
    max_iterations: int = 30,
) -> Consistency:
    """The coordinate ascent with one latent assignment per observation."""
    relevant = [o for o in observations if o.n1 > 0 or o.n2 > 0]
    if not relevant:
        return Consistency(0.5, 0.5, 0)
    b1 = sum(o.n1 for o in relevant)
    b2 = sum(o.n2 for o in relevant)

    def clamp(x: float) -> float:
        return min(epsilon_ceiling, max(epsilon_floor, x))

    total_observed = sum(o.observed for o in relevant)
    eps1 = clamp(total_observed / b1 if b1 else 0.5)
    eps2 = clamp(total_observed / b2 if b2 else 0.5)
    latents = [o.observed for o in relevant]
    for _ in range(max_iterations):
        zeta = (eps1 * eps2) / ((1.0 - eps1) * (1.0 - eps2))
        new_latents = [
            _best_latent(o.n1, o.n2, o.observed, zeta) if o.n1 and o.n2 else 0
            for o in relevant
        ]
        total = sum(new_latents)
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
    return Consistency(eps1, eps2, len(relevant))


def estimate_from_shapes(
    shapes: Mapping[_Observation, int],
    epsilon_floor: float = 0.01,
    epsilon_ceiling: float = 0.99,
    max_iterations: int = 30,
) -> Consistency:
    """The per-observation ascent over the observations ``shapes`` counts."""
    observations = [
        _Observation(*shape) for shape, count in shapes.items() for _ in range(count)
    ]
    return estimate_consistency(observations, epsilon_floor, epsilon_ceiling, max_iterations)


# ----------------------------------------------------------------------
# The loop: full rebuild with Dijkstra discovery
# ----------------------------------------------------------------------
class RebuildLoopState(LoopState):
    """A loop state that never uses the incremental propagator.

    Every propagate re-estimates all consistencies, rebuilds the whole
    probabilistic graph and reruns Dijkstra from every source, from the
    kept inputs the product path also reads, and every loop filters each
    restricted set afresh from its inferred map, sums every askable
    question's initial gain afresh and groups the gains into bands
    afresh.
    """

    def _infer_incremental(self, kb1, kb2) -> dict[Pair, dict[Pair, float]]:
        """Every source's map, from a from-scratch probabilistic graph."""
        config = self.config
        labels = {
            label
            for by_label in self.state.graph.groups.values()
            for label in by_label
        }
        consistencies = estimate_all_consistencies(
            kb1,
            kb2,
            labels,
            self._estimation_matches(),
            min_support=config.min_consistency_support,
            epsilon_default=config.epsilon_default,
            epsilon_floor=config.epsilon_floor,
            epsilon_ceiling=config.epsilon_ceiling,
        )
        prob_graph = build_probabilistic_graph(
            self.state.graph, kb1, kb2, self._effective, consistencies, config
        )
        return dijkstra_inferred_sets(prob_graph, self._sources, config.tau)

    def restricted_inferred_sets(self) -> dict[Pair, dict[Pair, float]]:
        unresolved = self._unresolved
        return {
            question: {p: d for p, d in inferred.items() if p in unresolved}
            for question, inferred in self._inferred_sets.items()
            if question in unresolved
        }

    def askable_questions(self, restricted) -> dict[Pair, float]:
        gains = self._askable_gains(restricted, restricted)
        self._bands = gain_bands(gains)
        return gains


class RebuildRemp(Remp):
    """:class:`repro.core.Remp` with :class:`RebuildLoopState` loops."""

    def _make_loop_state(self, state) -> LoopState:
        return RebuildLoopState(state, self.config)


# ----------------------------------------------------------------------
# Algorithm 3: lazy greedy question selection
# ----------------------------------------------------------------------
def greedy_question_selection(
    bands: GainBands,
    inferred: Mapping[Pair, Mapping[Pair, float]],
    priors: Mapping[Pair, float],
    mu: int,
) -> list[Pair]:
    """The lazy greedy over one heap of the questions in ``bands``, with
    every candidate's initial gain summed afresh."""
    candidates = [question for band in bands.values() for question in band]
    if mu < 1:
        raise ValueError("mu must be positive")
    resolved_prob: dict[Pair, float] = {}

    def marginal_gain(question: Pair) -> float:
        prior = priors.get(question, 0.0)
        if prior <= 0.0:
            return 0.0
        return sum(
            (1.0 - resolved_prob.get(pair, 0.0)) * prior
            for pair in inferred.get(question, ())
        )

    heap: list[tuple[float, Pair]] = []
    for question in candidates:
        gain = marginal_gain(question)
        if gain > 0.0:
            heap.append((-gain, question))
    heapq.heapify(heap)

    selected: list[Pair] = []
    chosen: set[Pair] = set()
    while heap and len(selected) < mu:
        neg_gain, question = heapq.heappop(heap)
        if question in chosen:
            continue
        gain = marginal_gain(question)
        if gain <= 0.0:
            break
        if heap and gain < -heap[0][0] - 1e-12:
            heapq.heappush(heap, (-gain, question))
            continue
        selected.append(question)
        chosen.add(question)
        prior = priors.get(question, 0.0)
        for pair in inferred.get(question, ()):
            previous = resolved_prob.get(pair, 0.0)
            resolved_prob[pair] = previous + (1.0 - previous) * prior
    return selected


# ----------------------------------------------------------------------
# Entity closures: one union–find
# ----------------------------------------------------------------------
class UnionFind:
    """Path-halving union–find over candidate pairs."""

    def __init__(self) -> None:
        self._parent: dict[Pair, Pair] = {}

    def find(self, item: Pair) -> Pair:
        parent = self._parent.setdefault(item, item)
        while parent != item:
            grandparent = self._parent[parent]
            self._parent[item] = grandparent
            item, parent = parent, self._parent.setdefault(grandparent, grandparent)
        return item

    def union(self, a: Pair, b: Pair) -> None:
        root_a, root_b = self.find(a), self.find(b)
        if root_a != root_b:
            # Deterministic root choice keeps grouping order-independent.
            if root_b < root_a:
                root_a, root_b = root_b, root_a
            self._parent[root_b] = root_a

    def union_shared_entities(self, pairs) -> None:
        """Add ``pairs``, linking every two that share their KB1 or KB2 entity."""
        by_left: dict[str, Pair] = {}
        by_right: dict[str, Pair] = {}
        for pair in pairs:
            self.find(pair)
            for key, bucket in ((pair[0], by_left), (pair[1], by_right)):
                anchor = bucket.setdefault(key, pair)
                if anchor != pair:
                    self.union(anchor, pair)


def entity_closure_components(state) -> list[set[Pair]]:
    """Retained pairs grouped by any chain of ER-graph edges or shared entities."""
    uf = UnionFind()
    uf.union_shared_entities(state.retained)
    for vertex, by_label in state.graph.groups.items():
        for members in by_label.values():
            for neighbor in members:
                uf.union(vertex, neighbor)
    groups: dict[Pair, set[Pair]] = {}
    for pair in state.retained:
        groups.setdefault(uf.find(pair), set()).add(pair)
    return list(groups.values())


def dirty_closure(
    old_pairs: set[Pair], new_pairs: set[Pair], dirty1: set[str], dirty2: set[str]
) -> set[Pair]:
    """All old ∪ new candidate pairs entity-chained to a touched entity."""
    universe = old_pairs | new_pairs
    uf = UnionFind()
    uf.union_shared_entities(universe)
    seeds = {p for p in universe if p[0] in dirty1 or p[1] in dirty2}
    dirty_roots = {uf.find(p) for p in seeds}
    return {p for p in universe if uf.find(p) in dirty_roots}


# ----------------------------------------------------------------------
# The KB-pair fingerprint: every document sorted afresh
# ----------------------------------------------------------------------
def _triple_key(triple: list) -> tuple:
    """Type-stable sort key: literals of mixed types cannot be compared."""
    subject, prop, value = triple
    return (subject, prop, type(value).__name__, str(value))


def kb_to_doc(kb: KnowledgeBase) -> dict:
    """``kb`` as a JSON-able document, its triples sorted from its indexes."""
    return {
        "name": kb.name,
        "entities": sorted(kb.entities),
        "attribute_triples": sorted(
            ([t.subject, t.prop, t.value] for t in kb.iter_attribute_triples()),
            key=_triple_key,
        ),
        "relationship_triples": sorted(
            [t.subject, t.prop, t.value] for t in kb.iter_relationship_triples()
        ),
    }


def kb_pair_fingerprint(kb1: KnowledgeBase, kb2: KnowledgeBase) -> str:
    """The digest of both KBs' :func:`kb_to_doc` documents."""
    blob = json.dumps(
        [kb_to_doc(kb1), kb_to_doc(kb2)],
        sort_keys=True,
        separators=(",", ":"),
        default=str,
    )
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


@contextmanager
def reference_kernels():
    """Rebind the product's kernel names to the references for a block.

    Candidate scoring falls to the product's dict loop, simL to
    ``literal_set_similarity``, pruning and ``pruning_error_rate`` to
    the dominance loops, and the ER graph, signatures, exact marginals,
    the ε ascent and the loop's greedy selection to the functions above.  The
    rebinding is process-wide and not thread-safe: for tests and
    benchmarks only.
    """
    bindings = [
        (repro.core.candidates, "score_candidates", _decline_scoring),
        (repro.core.attributes, "literal_scorer", _ReferenceScorer),
        (repro.core.vectors, "literal_scorer", _ReferenceScorer),
        (repro.core.pruning, "PackedVectors", _LoopPack),
        (repro.core.pruning, "any_strict_dominator", _any_dominator_python),
        (repro.accel.er_graph, "accel_groups", er_graph_groups),
        (repro.accel.candidates, "intern_signatures", signatures),
        (repro.accel.marginals, "_marginals_dp", exact_marginal_map),
        (repro.core.consistency, "estimate_from_shapes", estimate_from_shapes),
        (repro.core.pipeline, "greedy_question_selection", greedy_question_selection),
    ]
    saved = [(module, name, getattr(module, name)) for module, name, _ in bindings]
    for module, name, reference in bindings:
        setattr(module, name, reference)
    try:
        yield
    finally:
        for module, name, product in saved:
            setattr(module, name, product)
