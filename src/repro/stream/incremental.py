"""Incremental re-preparation: diff a cached PreparedState against a delta.

``incremental_prepare`` produces a :class:`~repro.core.PreparedState` for
the post-delta KB pair that is *identical* (same serialized document) to
what a from-scratch ``Remp.prepare`` would build — while recomputing only
inside the regions a delta can actually influence:

* **Candidates** couple through shared labels: only rows/columns of
  entities the delta touched are regenerated (against full token indexes,
  which are linear to rebuild — the quadratic-ish pair scoring is what we
  skip).
* **Attribute matching** is global but cheap (it only reads ``M_in``
  pairs), so it is recomputed outright; if the matches differ from the
  cached ones, every similarity vector is invalidated and the preparer
  falls back to a full re-prepare — correctness first.
* **Vectors, pruning** couple through entity-sharing chains: pruning
  blocks are per-entity, and block survivors feed the next block, so the
  dirty region is the *candidate entity closure* (the old ∪ new
  candidate pairs reachable from a touched entity through shared
  entities).  Pruning is
  re-run on exactly the dirty closures; clean closures keep their
  retained verdicts.
* **The ER graph** is spliced: vertices inside dirty closures are rebuilt
  wholesale, and the only clean vertices that can change are those
  relation-adjacent to a pair whose retained status flipped — found via
  the KB neighborhood indexes and rebuilt individually.
* **Signatures** are recomputed for touched and newly retained pairs.

Each stage calls the code ``Remp.prepare`` runs for it, on the dirty
region only; only the ER graph is rebuilt per vertex
(:func:`~repro.core.er_graph.vertex_groups`), since the whole-graph
kernel snapshots both KBs' adjacency on every call.

The returned ``changed`` set (every pair whose prepared artifacts may
differ, including removed pairs) is the dirty seed the stream runner
expands into dirty entity-closure units; ``changed is None`` signals a
full fallback (everything dirty).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.attributes import match_attributes
from repro.obs import runtime as obs
from repro.obs.logging import get_logger
from repro.core.candidates import CandidateSet, _labels_index, _token_index, score_row
from repro.core.config import RempConfig
from repro.core.er_graph import ERGraph, vertex_groups
from repro.core.isolated import build_signatures
from repro.core.pipeline import PreparedState, Remp
from repro.core.pruning import partial_order_pruning
from repro.core.vectors import VectorIndex, build_similarity_vectors, lead_with_prior
from repro.kb.io import kb_pair_fingerprint
from repro.kb.model import KnowledgeBase
from repro.partition.partitioner import closure_components
from repro.stream.delta import KBDelta

Pair = tuple[str, str]

log = get_logger("stream.incremental")


@dataclass(slots=True)
class IncrementalPrepared:
    """Outcome of one incremental re-preparation."""

    state: PreparedState
    #: Pairs (old or new) whose prepared artifacts may differ from the
    #: parent state's; ``None`` means a full fallback — everything dirty.
    changed: set[Pair] | None
    #: Content fingerprint of the post-delta KB pair.
    fingerprint: str
    #: Whether attribute matching changed and forced a full re-prepare.
    fell_back: bool = False


def _entity_neighbors(kb: KnowledgeBase, entity: str) -> set[str]:
    """Entities relation-adjacent to ``entity`` in either direction."""
    neighbors: set[str] = set()
    for targets in kb.entity_relations(entity).values():
        neighbors.update(targets)
    for sources in kb.entity_inverse_relations(entity).values():
        neighbors.update(sources)
    return neighbors


def _dirty_entities(
    delta: KBDelta, kb1: KnowledgeBase, kb2: KnowledgeBase
) -> tuple[set[str], set[str]]:
    """Touched entities, widened by removal fallout.

    Removing an entity silently removes the relationship triples of its
    neighbors too, so those neighbors' value sets — hence their ER-graph
    groups and consistency statistics — change without the delta naming
    them.  They are read off the *pre-delta* KBs, where the edges still
    exist.
    """
    dirty1, dirty2 = delta.touched_entities
    for op in delta.ops:
        if op.kind == "remove_entity":
            kb, bucket = (kb1, dirty1) if op.kb == 1 else (kb2, dirty2)
            bucket.update(_entity_neighbors(kb, op.subject))
    return dirty1, dirty2


def _splice_candidates(
    old: CandidateSet,
    kb1: KnowledgeBase,
    kb2: KnowledgeBase,
    dirty1: set[str],
    dirty2: set[str],
    threshold: float,
) -> CandidateSet:
    """Candidates for the new KB pair, recomputing only dirty rows/columns."""
    tokens1, inverted1 = _token_index(kb1)
    tokens2, inverted2 = _token_index(kb2)

    pairs = {p for p in old.pairs if p[0] not in dirty1 and p[1] not in dirty2}
    result = CandidateSet(
        pairs=pairs,
        priors={p: old.priors[p] for p in pairs},
        initial_matches={p for p in old.initial_matches if p in pairs},
    )
    rows1 = sorted(dirty1 & kb1.entities)
    rows2 = sorted(dirty2 & kb2.entities)
    for entity1 in rows1:
        if entity1 in tokens1:
            for entity2, sim in score_row(tokens1[entity1], tokens2, inverted2, threshold).items():
                result.pairs.add((entity1, entity2))
                result.priors[(entity1, entity2)] = sim
    for entity2 in rows2:
        if entity2 in tokens2:
            for entity1, sim in score_row(tokens2[entity2], tokens1, inverted1, threshold).items():
                result.pairs.add((entity1, entity2))
                result.priors[(entity1, entity2)] = sim

    # The exact-raw-label pass, restricted to the dirty rows and columns.
    labels1 = _labels_index(kb1)
    labels2 = _labels_index(kb2)
    for entity1 in rows1:
        for label in kb1.labels(entity1):
            for entity2 in labels2.get(label, ()):
                result.add_exact_label_pair((entity1, entity2), tokens1, tokens2)
    for entity2 in rows2:
        for label in kb2.labels(entity2):
            for entity1 in labels1.get(label, ()):
                result.add_exact_label_pair((entity1, entity2), tokens1, tokens2)
    return result


def _dirty_closure(
    old_pairs: set[Pair], new_pairs: set[Pair], dirty1: set[str], dirty2: set[str]
) -> set[Pair]:
    """All old ∪ new candidate pairs entity-chained to a touched entity.

    Pruning blocks are per-entity and block survivors feed the opposite
    side's blocks, so pruning influence travels exactly along shared
    entities — the closure is the finest region outside which every
    pruning verdict provably stands.  A walk over a by-entity index of
    the pairs, outward from the touched entities, visits the closure
    only (the union–find it replaced, now the oracle
    :func:`repro.accel.reference.dirty_closure`, joined and found every
    pair).
    """
    index: tuple[dict[str, list[Pair]], dict[str, list[Pair]]] = ({}, {})
    for pair in old_pairs | new_pairs:
        index[0].setdefault(pair[0], []).append(pair)
        index[1].setdefault(pair[1], []).append(pair)
    reached = (dirty1 & index[0].keys(), dirty2 & index[1].keys())
    frontier = [(0, entity) for entity in reached[0]]
    frontier += [(1, entity) for entity in reached[1]]
    closure: set[Pair] = set()
    while frontier:
        side, entity = frontier.pop()
        for pair in index[side][entity]:
            if pair in closure:
                continue
            closure.add(pair)
            for other in (0, 1):
                if pair[other] not in reached[other]:
                    reached[other].add(pair[other])
                    frontier.append((other, pair[other]))
    return closure


def _splice_components(
    parent: list[frozenset[Pair]] | None,
    retained: set[Pair],
    graph: ERGraph,
    changed: set[Pair],
) -> list[frozenset[Pair]] | None:
    """The spliced state's entity-closure components, from its parent's.

    A parent component holding no changed pair is a component of the
    spliced state too: none of its pairs is in the dirty closure, so
    each stays retained with the same neighbor groups (its vertices'
    groups changed nowhere, and groups are symmetric, so no new edge
    reaches it), and every pair sharing an entity with it was its
    member before.  The rest of the retained pairs, the changed ones
    and the other members of the parent components holding one, are
    walked afresh.  Without the parent's components there is nothing to
    keep: the state finds its own on first request.
    """
    if parent is None:
        return None
    kept: list[frozenset[Pair]] = []
    rest = retained & changed
    for component in parent:
        if component.isdisjoint(changed):
            kept.append(component)
        else:
            rest |= component & retained
    return kept + closure_components(rest, graph.groups)


def incremental_prepare(
    state: PreparedState,
    delta: KBDelta,
    config: RempConfig | None = None,
    *,
    check_fingerprint: bool = True,
) -> IncrementalPrepared:
    """Diff ``state`` against ``delta``; splice a post-delta prepared state.

    The result's serialized document equals a from-scratch
    ``Remp(config).prepare`` on the post-delta KBs (the invariant the
    stream equivalence suite pins down), but only dirty entity closures
    are recomputed.  ``config`` must be the configuration ``state`` was
    prepared under.
    """
    config = config or RempConfig()
    with obs.timed("stream.delta_apply"):
        kb1, kb2 = delta.apply(state.kb1, state.kb2, check_fingerprint=check_fingerprint)
    with obs.timed("stream.fingerprint"):
        fingerprint = kb_pair_fingerprint(kb1, kb2)
    dirty1, dirty2 = _dirty_entities(delta, state.kb1, state.kb2)

    with obs.timed("stream.splice_candidates"):
        candidates = _splice_candidates(
            state.candidates, kb1, kb2, dirty1, dirty2, config.label_similarity_threshold
        )
    with obs.timed("stream.attributes"):
        attribute_matches = match_attributes(
            kb1, kb2, candidates.initial_matches, literal_threshold=config.literal_threshold
        )
    if attribute_matches != state.attribute_matches:
        # Every vector component shifts when the attribute alignment
        # does; nothing downstream of the candidate set survives.
        obs.count("stream.prepare.full_fallbacks")
        log.info("attribute alignment changed; falling back to full prepare")
        full = Remp(config).prepare(kb1, kb2)
        return IncrementalPrepared(
            state=full, changed=None, fingerprint=fingerprint, fell_back=True
        )

    with obs.timed("stream.dirty_closure"):
        closure = _dirty_closure(state.candidates.pairs, candidates.pairs, dirty1, dirty2)
    seeds = {p for p in candidates.pairs if p[0] in dirty1 or p[1] in dirty2}

    # Vectors: only pairs whose entities were touched can change (the
    # attribute alignment is unchanged); removed pairs drop out.
    with obs.timed("stream.vectors"):
        vectors = {
            p: v for p, v in state.vector_index.vectors.items() if p in candidates.pairs
        }
        if seeds:
            vectors.update(
                lead_with_prior(
                    build_similarity_vectors(
                        kb1, kb2, seeds, attribute_matches, config.literal_threshold
                    ),
                    candidates.priors,
                )
            )
        index = VectorIndex(vectors)

    # Pruning: re-run on the dirty closures only.  Blocks are per-entity
    # and closures are entity-closed, so the local verdicts coincide with
    # a global run's.
    with obs.timed("stream.pruning"):
        dirty_new = closure & candidates.pairs
        retained = (state.retained - closure) | partial_order_pruning(
            dirty_new, index, config.k
        )

    # ER graph: rebuild dirty-closure vertices wholesale, then the clean
    # vertices relation-adjacent to a pair whose retained status flipped.
    with obs.timed("stream.graph_splice"):
        changed_retained = state.retained ^ retained
        graph = ERGraph(vertices=set(retained))
        rebuild = retained & closure
        for vertex in retained - closure:
            groups = state.graph.groups.get(vertex)
            if groups is not None:
                graph.groups[vertex] = groups
        by_left: dict[str, list[Pair]] = {}
        for pair in retained - closure:
            by_left.setdefault(pair[0], []).append(pair)
        affected: set[Pair] = set()
        for a, b in changed_retained:
            near1 = _entity_neighbors(kb1, a)
            near2 = _entity_neighbors(kb2, b)
            if not near1 or not near2:
                continue
            for entity1 in near1:
                for pair in by_left.get(entity1, ()):
                    if pair[1] in near2:
                        affected.add(pair)
        group_changed: set[Pair] = set()
        for vertex in sorted(rebuild | affected):
            groups = vertex_groups(kb1, kb2, vertex, retained)
            if vertex in affected and groups != state.graph.groups.get(vertex, {}):
                group_changed.add(vertex)
            if groups:
                graph.groups[vertex] = groups
            else:
                graph.groups.pop(vertex, None)

    # Signatures: as with vectors, only touched or newly retained pairs
    # can change.  An empty recomputed signature is a real result too.
    kept = state.signatures
    fresh = build_signatures(
        kb1, kb2, [p for p in retained if p in seeds or p not in kept], attribute_matches
    )
    signatures = {p: fresh[p] if p in fresh else kept[p] for p in retained}
    priors = {
        pair: candidates.priors.get(pair, config.default_prior) for pair in retained
    }

    changed = closure | group_changed
    with obs.timed("stream.components"):
        components = _splice_components(state.components, retained, graph, changed)
    new_state = PreparedState(
        kb1=kb1,
        kb2=kb2,
        candidates=candidates,
        attribute_matches=attribute_matches,
        vector_index=index,
        retained=retained,
        graph=graph,
        signatures=signatures,
        priors=priors,
        isolated=graph.isolated_vertices(),
        components=components,
    )
    obs.count("stream.prepare.dirty_pairs", len(changed))
    log.info(
        "incremental prepare: %d dirty pairs of %d retained",
        len(changed),
        len(retained),
    )
    return IncrementalPrepared(
        state=new_state,
        changed=changed,
        fingerprint=fingerprint,
    )
