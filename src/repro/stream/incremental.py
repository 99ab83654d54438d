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
  dirty region is the *candidate entity closure* (union–find over
  old ∪ new candidate pairs linked by a shared entity).  Pruning is
  re-run on exactly the dirty closures; clean closures keep their
  retained verdicts.
* **The ER graph** is spliced: vertices inside dirty closures are rebuilt
  wholesale, and the only clean vertices that can change are those
  relation-adjacent to a pair whose retained status flipped — found via
  the KB neighborhood indexes and rebuilt individually.

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
from repro.core.candidates import CandidateSet, _labels_index, _token_index
from repro.core.config import RempConfig
from repro.core.er_graph import INVERSE_PREFIX, ERGraph
from repro.core.isolated import attribute_signature
from repro.core.pipeline import PreparedState, Remp
from repro.core.pruning import partial_order_pruning
from repro.core.vectors import VectorIndex, build_similarity_vectors
from repro.kb.io import kb_pair_fingerprint
from repro.kb.model import KnowledgeBase
from repro.partition.partitioner import UnionFind
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


def _candidate_row(
    entity: str,
    tokens: frozenset[str],
    other_tokens: dict[str, frozenset[str]],
    other_inverted: dict[str, set[str]],
    threshold: float,
) -> dict[str, float]:
    """Jaccard scores of one entity against the other KB, off its index.

    The arithmetic mirrors ``generate_candidates`` exactly (integer
    intersection counts, one float division), so recomputed scores are
    bit-equal to a from-scratch run's.
    """
    intersections: dict[str, int] = {}
    for token in tokens:
        for other in other_inverted.get(token, ()):
            intersections[other] = intersections.get(other, 0) + 1
    size = len(tokens)
    row: dict[str, float] = {}
    for other, shared in intersections.items():
        sim = shared / (size + len(other_tokens[other]) - shared)
        if sim >= threshold:
            row[other] = sim
    return row


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
    priors = {p: old.priors[p] for p in pairs}
    initial = {p for p in old.initial_matches if p in pairs}

    for entity1 in sorted(dirty1 & kb1.entities):
        tset = tokens1.get(entity1)
        if tset is None:
            continue
        for entity2, sim in _candidate_row(
            entity1, tset, tokens2, inverted2, threshold
        ).items():
            pairs.add((entity1, entity2))
            priors[(entity1, entity2)] = sim
    for entity2 in sorted(dirty2 & kb2.entities):
        tset = tokens2.get(entity2)
        if tset is None:
            continue
        for entity1, sim in _candidate_row(
            entity2, tset, tokens1, inverted1, threshold
        ).items():
            pairs.add((entity1, entity2))
            priors[(entity1, entity2)] = sim

    # Exact-raw-label pass (M_in plus the empty-token special case),
    # restricted to the dirty rows and columns.
    labels1 = _labels_index(kb1)
    labels2 = _labels_index(kb2)

    def exact_label_pair(entity1: str, entity2: str) -> None:
        pair = (entity1, entity2)
        if pair in pairs:
            initial.add(pair)
        elif entity1 not in tokens1 or entity2 not in tokens2:
            pairs.add(pair)
            priors[pair] = 1.0
            initial.add(pair)

    for entity1 in sorted(dirty1 & kb1.entities):
        for label in kb1.labels(entity1):
            for entity2 in labels2.get(label, ()):
                exact_label_pair(entity1, entity2)
    for entity2 in sorted(dirty2 & kb2.entities):
        for label in kb2.labels(entity2):
            for entity1 in labels1.get(label, ()):
                exact_label_pair(entity1, entity2)

    return CandidateSet(pairs=pairs, priors=priors, initial_matches=initial)


def _dirty_closure(
    old_pairs: set[Pair], new_pairs: set[Pair], dirty1: set[str], dirty2: set[str]
) -> set[Pair]:
    """All old ∪ new candidate pairs entity-chained to a touched entity.

    Pruning blocks are per-entity and block survivors feed the opposite
    side's blocks, so pruning influence travels exactly along shared
    entities — the closure is the finest region outside which every
    pruning verdict provably stands.
    """
    universe = old_pairs | new_pairs
    uf = UnionFind()
    anchors_left: dict[str, Pair] = {}
    anchors_right: dict[str, Pair] = {}
    for pair in universe:
        uf.find(pair)
        for key, bucket in ((pair[0], anchors_left), (pair[1], anchors_right)):
            anchor = bucket.setdefault(key, pair)
            if anchor != pair:
                uf.union(anchor, pair)
    seeds = {p for p in universe if p[0] in dirty1 or p[1] in dirty2}
    dirty_roots = {uf.find(p) for p in seeds}
    return {p for p in universe if uf.find(p) in dirty_roots}


def _vertex_groups(
    kb1: KnowledgeBase, kb2: KnowledgeBase, vertex: Pair, retained: set[Pair]
) -> dict:
    """One vertex's neighbor groups, mirroring ``build_er_graph`` exactly."""
    entity1, entity2 = vertex
    by_label: dict = {}
    directions = (
        (kb1.entity_relations(entity1), kb2.entity_relations(entity2), ""),
        (
            kb1.entity_inverse_relations(entity1),
            kb2.entity_inverse_relations(entity2),
            INVERSE_PREFIX,
        ),
    )
    for rels1, rels2, prefix in directions:
        for r1, targets1 in rels1.items():
            for r2, targets2 in rels2.items():
                members = {
                    (t1, t2) for t1 in targets1 for t2 in targets2 if (t1, t2) in retained
                }
                if members:
                    by_label[(prefix + r1, prefix + r2)] = members
    return by_label


def _signature(state_kb1, state_kb2, pair, attribute_matches):
    presence = tuple(
        bool(state_kb1.attribute_values(pair[0], m.attr1))
        and bool(state_kb2.attribute_values(pair[1], m.attr2))
        for m in attribute_matches
    )
    return attribute_signature(presence)


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
    kb1, kb2 = delta.apply(state.kb1, state.kb2, check_fingerprint=check_fingerprint)
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

    closure = _dirty_closure(state.candidates.pairs, candidates.pairs, dirty1, dirty2)
    seeds = {p for p in candidates.pairs if p[0] in dirty1 or p[1] in dirty2}

    # Vectors: only pairs whose entities were touched can change (the
    # attribute alignment is unchanged); removed pairs drop out.
    with obs.timed("stream.vectors"):
        vectors = {
            p: v for p, v in state.vector_index.vectors.items() if p in candidates.pairs
        }
        if seeds:
            raw = build_similarity_vectors(
                kb1, kb2, seeds, attribute_matches, config.literal_threshold
            )
            for pair, vector in raw.items():
                vectors[pair] = (candidates.priors.get(pair, 0.0),) + vector
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
            groups = _vertex_groups(kb1, kb2, vertex, retained)
            if vertex in affected and groups != state.graph.groups.get(vertex, {}):
                group_changed.add(vertex)
            if groups:
                graph.groups[vertex] = groups
            else:
                graph.groups.pop(vertex, None)

    signatures = {}
    for pair in retained:
        if pair in seeds or pair not in state.signatures:
            signatures[pair] = _signature(kb1, kb2, pair, attribute_matches)
        else:
            signatures[pair] = state.signatures[pair]
    priors = {
        pair: candidates.priors.get(pair, config.default_prior) for pair in retained
    }

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
    )
    changed = closure | group_changed
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
