"""Dirty-region-aware loop propagation (incremental ``LoopState.propagate``).

The reference loop rebuilds the whole probabilistic ER graph and re-runs a
ζ-bounded Dijkstra from *every* source on *every* crowd-loop iteration,
although one labeling round only moves a handful of priors.  This module
maintains the derived state across iterations and recomputes exactly the
regions the last round could have influenced:

* **Consistencies** — the estimation set only grows, and the caller
  hands over just the matches it added; new matches add observations
  and can only bump the ``observed`` lower bound of existing
  observations whose value sets contain them (found through the KB
  relation indexes).  Each label keeps a count per observation shape
  (n₁, n₂, observed) beside its observations: an added observation
  counts up its shape, and a replaced one moves its count from the old
  shape to the new.  A label whose observations changed is re-estimated
  from those counts — a handful of shapes where it has hundreds of
  observations — and one whose observations did not change keeps its
  cached :class:`~repro.core.consistency.Consistency` verbatim.
* **Edges** — a neighbor group's Eq. 9 marginals are recomputed only
  when its label's γ = ε₁ε₂/((1−ε₁)(1−ε₂)) changed or a member pair's
  effective prior did; the caller names the pairs whose prior moved.
  The marginals read the consistency only through γ, so a
  re-estimation that grows a label's support without moving γ (ε₁, ε₂
  held at the ceiling, say) dirties nothing.  A vertex's
  edge/length rows are rebuilt only from dirty groups, preserving the
  reference construction order (labels in group order, members sorted)
  so downstream float accumulations see the same operand order.
* **Dijkstra** — a cached per-source distance map stays valid while its
  reachable region is disjoint from the vertices whose length rows
  changed: any path from the source either uses no changed row (same
  distance as cached) or reaches a changed row's vertex through
  unchanged edges — impossible when the cached reachable set avoids all
  changed vertices.  A vertex → sources reverse index, filled whenever
  a source's map is computed, finds the maps to drop: each changed
  vertex pops its sources, and those whose current map still reaches
  it are dropped.  Entries of dropped or recomputed maps go stale
  rather than being removed, hence the membership re-check.  A round
  returns only the maps that are new to the caller: recomputed ones and
  those of the sources that entered the source set since the last round.

Equivalence with the full rebuild is pinned by the accel test suite,
after every round of a loop: the incremental maps must be ``==`` *and*
iterate in the same order (benefit sums are float accumulations over map
order).
"""

from __future__ import annotations

from collections import Counter, defaultdict
from typing import Iterable

from repro.obs import runtime as obs
from repro.core.config import RempConfig
from repro.core.consistency import (
    Consistency,
    _Observation,
    _observed_match_count,
    label_consistency,
)
from repro.core.discovery import bounded_dijkstra, edge_length_row, zeta_from_tau
from repro.core.er_graph import INVERSE_PREFIX, ERGraph, RelPair, value_sets
from repro.core.propagation import _marginals_exact, _reduce_group, combined_edge_row
from repro.kb.model import KnowledgeBase

Pair = tuple[str, str]
DistanceMap = dict[Pair, float]
GroupKey = tuple[Pair, RelPair]


def _containing_entities(kb: KnowledgeBase, entity: str, rel: str) -> set[str]:
    """Entities whose ``rel`` value set contains ``entity``.

    For a forward relationship the value set is ``relation_values``, so
    the containers are the relation *sources* of ``entity``; inverse
    labels flip the direction.
    """
    if rel.startswith(INVERSE_PREFIX):
        return kb.relation_values(entity, rel[len(INVERSE_PREFIX):])
    return kb.relation_sources(entity, rel)


class IncrementalPropagator:
    """Caches the derived propagation state of one :class:`LoopState`.

    The returned distance maps are shared with the internal cache and
    must be treated as read-only by callers.  :meth:`update` replaces a
    source's map when it recomputes it and never mutates one, and it
    returns only the maps that are new this round, so a caller keeps
    whatever it derived from a map until the map comes back:
    ``LoopState.restricted_inferred_sets`` rebuilds a question's Eq. 12
    restricted set only then.  Each :meth:`update` counts its work in
    the active run scope: ``propagation.groups_recomputed`` and
    ``propagation.dijkstra_runs``.
    """

    def __init__(
        self,
        graph: ERGraph,
        kb1: KnowledgeBase,
        kb2: KnowledgeBase,
        config: RempConfig,
    ):
        self._graph = graph
        self._kb1 = kb1
        self._kb2 = kb2
        self._config = config
        self._zeta = zeta_from_tau(config.tau)
        self._labels = {
            label for by_label in graph.groups.values() for label in by_label
        }
        # Static reverse indexes: which groups a pair / a label touches.
        self._pair_groups: dict[Pair, list[GroupKey]] = {}
        self._label_vertices: dict[RelPair, list[Pair]] = {}
        for vertex, by_label in graph.groups.items():
            for label, group in by_label.items():
                self._label_vertices.setdefault(label, []).append(vertex)
                for member in group:
                    self._pair_groups.setdefault(member, []).append((vertex, label))
        # Consistency estimation state: per label, each matched pair's
        # observation and how many observations have each shape.
        self._folded: set[Pair] = set()
        self._observations: dict[RelPair, dict[Pair, _Observation]] = {
            label: {} for label in self._labels
        }
        self._shapes: dict[RelPair, Counter[_Observation]] = {
            label: Counter() for label in self._labels
        }
        self._consistencies: dict[RelPair, Consistency] = {}
        # Edge / Dijkstra state.
        self._primed = False
        self._last_gammas: dict[RelPair, float] = {}
        self._marginals: dict[GroupKey, dict[Pair, float]] = {}
        self._lengths: dict[Pair, DistanceMap] = {}
        self._maps: dict[Pair, DistanceMap] = {}
        # Vertex -> sources whose map reached it when computed (may hold
        # stale sources; see the module docstring).
        self._reached_from: defaultdict[Pair, set[Pair]] = defaultdict(set)
        # Structural marginal memo: Eq. 9 marginals depend only on γ, the
        # reduced pairs' priors and their 1:1 collision pattern — not on
        # the entity names.  Repetitive graphs hit this cache hard.
        self._marginal_memo: dict[tuple, tuple[float, ...]] = {}
        # Per-group (sorted pairs, reduced pairs, γ-free signature),
        # valid until a member pair's effective prior changes — rounds
        # that move only γ skip the sort + reduction.
        self._group_cache: dict[GroupKey, tuple] = {}

    # ------------------------------------------------------------------
    # Incremental consistency estimation
    # ------------------------------------------------------------------
    def estimate_consistencies(self, added: Iterable[Pair]) -> dict[RelPair, Consistency]:
        """Mirror of ``estimate_all_consistencies`` over a growing match set.

        ``added`` holds the matches added to the estimation set since the
        last call (all of them on the first); one already folded in is
        skipped.
        """
        with obs.timed("loop.consistency"):
            matches = self._folded
            new_matches = {pair for pair in added if pair not in matches}
            matches.update(new_matches)
            config = self._config
            for label in self._labels:
                changed = self._update_label_observations(label, new_matches, matches)
                if changed or label not in self._consistencies:
                    self._consistencies[label] = label_consistency(
                        self._shapes[label],
                        config.min_consistency_support,
                        config.epsilon_default,
                        config.epsilon_floor,
                        config.epsilon_ceiling,
                    )
            return dict(self._consistencies)

    def _update_label_observations(
        self, label: RelPair, new_matches: set[Pair], matches: set[Pair]
    ) -> bool:
        """Fold ``new_matches`` into one label's observations; True if changed."""
        kb1, kb2 = self._kb1, self._kb2
        observations = self._observations[label]
        r1, r2 = label
        changed = False
        # Existing observations whose value sets contain a new match can
        # see their observed lower bound rise.
        affected: set[Pair] = set()
        for entity1, entity2 in new_matches:
            containers1 = _containing_entities(kb1, entity1, r1)
            if not containers1:
                continue
            containers2 = _containing_entities(kb2, entity2, r2)
            if not containers2:
                continue
            for e1 in containers1:
                for e2 in containers2:
                    if (e1, e2) in observations:
                        affected.add((e1, e2))
        for pair in affected:
            changed |= self._observe(label, pair, matches)
        # New matched pairs contribute observations of their own.
        for pair in new_matches:
            changed |= self._observe(label, pair, matches)
        return changed

    def _observe(self, label: RelPair, pair: Pair, matches: set[Pair]) -> bool:
        """(Re)compute ``pair``'s observation under ``label`` and move the
        shape counts with it; True if it changed.  A pair whose value sets
        are both empty gives no observation."""
        values1, values2 = value_sets(self._kb1, self._kb2, pair[0], pair[1], label)
        if not values1 and not values2:
            return False
        observation = _Observation(
            len(values1), len(values2), _observed_match_count(values1, values2, matches)
        )
        observations = self._observations[label]
        old = observations.get(pair)
        if old == observation:
            return False
        shapes = self._shapes[label]
        if old is not None:
            shapes[old] -= 1
            if not shapes[old]:
                del shapes[old]
        observations[pair] = observation
        shapes[observation] += 1
        return True

    # ------------------------------------------------------------------
    # Incremental edges + Dijkstra
    # ------------------------------------------------------------------
    def update(
        self,
        effective_priors: dict[Pair, float],
        moved: Iterable[Pair],
        consistencies: dict[RelPair, Consistency],
        sources: set[Pair],
        entered: set[Pair],
    ) -> dict[Pair, DistanceMap]:
        """The inferred sets new this round, recomputing only dirty regions.

        ``effective_priors`` is read in place, ``moved`` names the pairs
        whose effective prior changed since the last call, ``sources`` is
        the current source set and ``entered`` the sources added to it
        since the last call (every source on the first).  Returns the
        maps of the sources whose cached map was dropped, recomputed, and
        of the entered sources, cached or computed: every other source
        keeps the map the caller already holds.
        """
        fallback = Consistency(
            self._config.epsilon_default, self._config.epsilon_default, 0
        )
        gammas = {
            label: consistencies.get(label, fallback).gamma() for label in self._labels
        }
        with obs.timed("loop.edges"):
            dirty_groups, prior_dirty = self._dirty_groups(moved, gammas)
            for key in dirty_groups:
                self._marginals[key] = self._group_marginals(
                    key,
                    effective_priors,
                    gammas[key[1]],
                    rebuild_signature=key in prior_dirty,
                )
            dirty_vertices = self._rebuild_rows({v for v, _ in dirty_groups})
        with obs.timed("loop.dijkstra"):
            maps = self._maps
            stale = set(entered)
            for vertex in dirty_vertices:
                for source in self._reached_from.pop(vertex, ()):
                    if vertex in maps.get(source, ()):
                        del maps[source]
                        if source in sources:
                            stale.add(source)
            runs = 0
            result: dict[Pair, DistanceMap] = {}
            for source in stale:
                cached = maps.get(source)
                if cached is None:
                    cached = bounded_dijkstra(self._lengths, source, self._zeta)
                    maps[source] = cached
                    runs += 1
                    for vertex in cached:
                        self._reached_from[vertex].add(source)
                result[source] = cached
        obs.count("propagation.groups_recomputed", len(dirty_groups))
        obs.count("propagation.dijkstra_runs", runs)
        self._last_gammas = gammas
        self._primed = True
        return result

    def _group_marginals(
        self,
        key: GroupKey,
        priors: dict[Pair, float],
        gamma: float,
        rebuild_signature: bool,
    ) -> dict[Pair, float]:
        """Mirror of ``neighbor_marginals`` with two layers of caching.

        The reduction and the exact DFS read nothing but the reduced
        pairs' priors, their left/right collision pattern and γ, so the
        marginals (by position) are memoizable under that signature —
        and the γ-free part of the signature itself (sort + reduction)
        stays valid until a member pair's prior moves, which γ-only
        re-estimation rounds never do.
        """
        cached = None if rebuild_signature else self._group_cache.get(key)
        if cached is None:
            config = self._config
            pairs = sorted(self._graph.groups[key[0]][key[1]])
            reduced = _reduce_group(
                pairs, priors, config.max_exact_pairs, config.max_candidates_per_value
            )
            left_index: dict[str, int] = {}
            right_index: dict[str, int] = {}
            signature = tuple(
                (
                    left_index.setdefault(left, len(left_index)),
                    right_index.setdefault(right, len(right_index)),
                    priors.get((left, right), 0.5),
                )
                for left, right in reduced
            )
            cached = (pairs, reduced, signature)
            self._group_cache[key] = cached
        pairs, reduced, signature = cached
        memo_key = (gamma, signature)
        values = self._marginal_memo.get(memo_key)
        if values is None:
            exact = _marginals_exact(reduced, priors, gamma)
            values = tuple(exact[pair] for pair in reduced)
            self._marginal_memo[memo_key] = values
        if len(reduced) == len(pairs):
            # No reduction happened: values align with pairs positionally.
            return dict(zip(pairs, values))
        by_pair = dict(zip(reduced, values))
        return {pair: by_pair.get(pair, 0.0) for pair in pairs}

    def _dirty_groups(
        self,
        moved: Iterable[Pair],
        gammas: dict[RelPair, float],
    ) -> tuple[set[GroupKey], set[GroupKey]]:
        """(all dirty groups, groups dirty because a member prior moved)."""
        if not self._primed:
            every = {
                (vertex, label)
                for vertex, by_label in self._graph.groups.items()
                for label in by_label
            }
            return every, every
        prior_dirty: set[GroupKey] = set()
        for pair in moved:
            prior_dirty.update(self._pair_groups.get(pair, ()))
        dirty = set(prior_dirty)
        previous = self._last_gammas
        for label in self._labels:
            if gammas[label] != previous.get(label):
                for vertex in self._label_vertices.get(label, ()):
                    dirty.add((vertex, label))
        return dirty, prior_dirty

    def _rebuild_rows(self, vertices: set[Pair]) -> set[Pair]:
        """Rebuild length rows for ``vertices``; return those that changed.

        Row construction replays ``build_probabilistic_graph`` +
        ``edge_lengths`` exactly: iterate the vertex's labels in group
        order (marginals are already sorted per group), keep the maximum
        probability per target, drop self-edges and non-positive
        probabilities, then −log-transform under the ζ budget.  Insertion
        order is structural (independent of the values), so an unchanged
        row is unchanged *including order* and can be kept verbatim.
        """
        changed: set[Pair] = set()
        for vertex in vertices:
            row = combined_edge_row(
                vertex,
                (
                    self._marginals[(vertex, label)]
                    for label in self._graph.groups[vertex]
                ),
            )
            lengths = edge_length_row(row, self._zeta)
            if lengths != self._lengths.get(vertex, {}):
                changed.add(vertex)
                if lengths:
                    self._lengths[vertex] = lengths
                else:
                    self._lengths.pop(vertex, None)
        return changed
