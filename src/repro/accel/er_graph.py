"""Adjacency-indexed ER-graph construction (accel kernel).

The reference construction (:func:`repro.accel.reference.er_graph_groups`)
forms, for every vertex and every relationship-pair label, the full
value-set product ``N^{r1}_{u1} × N^{r2}_{u2}`` and filters it against
the vertex set — a candidate pair is probed once per product cell,
which blows up on high-degree inverse relations (every reviewer of a
popular movie × every reviewer of its counterpart).  This kernel
inverts the membership test: two partner indexes map each KB-1 / KB-2
entity to the vertices it appears in, and a group's members are
gathered by walking the *smaller* value set through its partner lists
and checking the other side's set — each vertex is touched O(shared
relations) times instead of once per cell.

Byte-identity with the reference is structural: the vertex iteration
order and the per-vertex label order (forward ``rels1 × rels2`` then
inverse, in KB insertion order) are replayed exactly — those dict
orders feed downstream float accumulation (``combined_edge_row``,
edge-row relaxation) — and member *sets* carry no order, so identical
contents make identical graphs.
"""

from __future__ import annotations

from repro.core.er_graph import INVERSE_PREFIX
from repro.kb.model import KnowledgeBase
from repro.obs import runtime as obs

Pair = tuple[str, str]
RelPair = tuple[str, str]

#: entity → tuple of ``(relation, target-set)`` rows, forward and inverse.
Adjacency = tuple[dict[str, tuple], dict[str, tuple]]


def relation_adjacency(kb: KnowledgeBase) -> Adjacency:
    """Snapshot a KB's relation rows in accessor iteration order.

    The tuples hold references to the KB's live target sets, which the
    build only reads.
    """
    forward: dict[str, tuple] = {}
    inverse: dict[str, tuple] = {}
    for entity in kb.entities:
        rels = kb.entity_relations(entity)
        if rels:
            forward[entity] = tuple(rels.items())
        inv = kb.entity_inverse_relations(entity)
        if inv:
            inverse[entity] = tuple(inv.items())
    return forward, inverse


def accel_groups(
    kb1: KnowledgeBase,
    kb2: KnowledgeBase,
    vertices,
) -> dict[Pair, dict[RelPair, set[Pair]]]:
    """The ER graph's ``groups`` map over ``vertices``."""
    with obs.timed("kernel.er_graph"):
        fwd1, inv1 = relation_adjacency(kb1)
        fwd2, inv2 = relation_adjacency(kb2)

        by_entity1: dict[str, list[Pair]] = {}
        by_entity2: dict[str, list[Pair]] = {}
        for vertex in vertices:
            by_entity1.setdefault(vertex[0], []).append(vertex)
            by_entity2.setdefault(vertex[1], []).append(vertex)

        empty: tuple = ()
        groups: dict[Pair, dict[RelPair, set[Pair]]] = {}
        for vertex in vertices:
            entity1, entity2 = vertex
            by_label: dict[RelPair, set[Pair]] = {}
            for rels1, rels2, prefix in (
                (fwd1.get(entity1, empty), fwd2.get(entity2, empty), ""),
                (inv1.get(entity1, empty), inv2.get(entity2, empty), INVERSE_PREFIX),
            ):
                if not rels1 or not rels2:
                    continue
                for r1, targets1 in rels1:
                    for r2, targets2 in rels2:
                        if len(targets1) <= len(targets2):
                            members = {
                                w
                                for t1 in targets1
                                for w in by_entity1.get(t1, empty)
                                if w[1] in targets2
                            }
                        else:
                            members = {
                                w
                                for t2 in targets2
                                for w in by_entity2.get(t2, empty)
                                if w[0] in targets1
                            }
                        if members:
                            by_label[(prefix + r1, prefix + r2)] = members
            if by_label:
                groups[vertex] = by_label
        return groups
