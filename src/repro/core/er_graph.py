"""The ER graph (Definition 2) and its probabilistic counterpart.

Vertices are candidate entity pairs; a directed edge labeled with the
relationship pair (r₁, r₂) connects (u₁, u₂) to (u₁′, u₂′) whenever
``(u₁, r₁, u₁′)`` and ``(u₂, r₂, u₂′)`` are triples of the two KBs.  We also
materialize *inverse* edges (labels prefixed with ``~``) so that match
information can propagate against relationship direction — from a movie
match back to its director, for example.  Inverse labels get their own
consistency estimates, since functionality is direction-dependent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.kb.model import KnowledgeBase

Pair = tuple[str, str]
RelPair = tuple[str, str]

INVERSE_PREFIX = "~"


def inverse_label(rel_pair: RelPair) -> RelPair:
    """Flip a relationship-pair label between forward and inverse form."""
    r1, r2 = rel_pair
    if r1.startswith(INVERSE_PREFIX):
        return (r1[len(INVERSE_PREFIX):], r2[len(INVERSE_PREFIX):])
    return (INVERSE_PREFIX + r1, INVERSE_PREFIX + r2)


def value_sets(
    kb1: KnowledgeBase, kb2: KnowledgeBase, entity1: str, entity2: str, rel_pair: RelPair
) -> tuple[set[str], set[str]]:
    """The value sets ``N^{r1}_{u1}`` and ``N^{r2}_{u2}`` for an edge label.

    Inverse labels read the source sets instead of the target sets.
    """
    r1, r2 = rel_pair
    if r1.startswith(INVERSE_PREFIX):
        return (
            kb1.relation_sources(entity1, r1[len(INVERSE_PREFIX):]),
            kb2.relation_sources(entity2, r2[len(INVERSE_PREFIX):]),
        )
    return kb1.relation_values(entity1, r1), kb2.relation_values(entity2, r2)


@dataclass(slots=True)
class ERGraph:
    """Directed, edge-labeled multigraph over candidate entity pairs.

    ``groups[v][(r1, r2)]`` is the set of vertices reachable from ``v``
    through the relationship pair (r₁, r₂) — the candidates inside
    ``N^{r1}_{u1} × N^{r2}_{u2}``.  Edges appear once per label, so two
    vertices may be connected under several labels (a multigraph).
    """

    vertices: set[Pair] = field(default_factory=set)
    groups: dict[Pair, dict[RelPair, set[Pair]]] = field(default_factory=dict)

    def neighbor_groups(self, vertex: Pair) -> dict[RelPair, set[Pair]]:
        return self.groups.get(vertex, {})

    def neighbors(self, vertex: Pair) -> set[Pair]:
        """All vertices adjacent to ``vertex`` under any label (out-edges)."""
        out: set[Pair] = set()
        for members in self.groups.get(vertex, {}).values():
            out.update(members)
        return out

    def iter_edges(self) -> Iterator[tuple[Pair, RelPair, Pair]]:
        for vertex, by_label in self.groups.items():
            for label, members in by_label.items():
                for neighbor in members:
                    yield vertex, label, neighbor

    @property
    def num_edges(self) -> int:
        return sum(len(m) for by_label in self.groups.values() for m in by_label.values())

    def num_forward_edges(self) -> int:
        """Edges under forward (non-inverse) labels only — Definition 2 edges."""
        return sum(
            len(members)
            for by_label in self.groups.values()
            for label, members in by_label.items()
            if not label[0].startswith(INVERSE_PREFIX)
        )

    def degree(self, vertex: Pair) -> int:
        return sum(len(m) for m in self.groups.get(vertex, {}).values())

    def isolated_vertices(self) -> set[Pair]:
        """Vertices with no edges in either direction."""
        return {v for v in self.vertices if not self.groups.get(v)}

    def iter_components(self) -> Iterator[set[Pair]]:
        """Lazily yield the weakly-connected components of the graph.

        Components of the undirected view (inverse edges make adjacency
        symmetric, so a plain out-edge BFS suffices).  Isolated vertices
        come out as singleton components.  The yield order is unspecified;
        callers needing determinism sort the components themselves (see
        :mod:`repro.partition`).
        """
        remaining = set(self.vertices)
        while remaining:
            seed = remaining.pop()
            component = {seed}
            frontier = [seed]
            while frontier:
                vertex = frontier.pop()
                for neighbor in self.neighbors(vertex):
                    if neighbor in remaining:
                        remaining.discard(neighbor)
                        component.add(neighbor)
                        frontier.append(neighbor)
            yield component

    def connected_components(self) -> list[set[Pair]]:
        """All weakly-connected components (see :meth:`iter_components`)."""
        return list(self.iter_components())

    def subgraph(self, vertices: set[Pair]) -> "ERGraph":
        """The induced subgraph over ``vertices``.

        Neighbor groups are intersected with ``vertices``; groups that
        become empty are dropped.  When ``vertices`` is a union of whole
        components, every group survives intact, so the slice loses no
        propagation paths — the property :mod:`repro.partition` relies on.
        """
        kept = self.vertices & vertices
        sub = ERGraph(vertices=kept)
        for vertex in kept:
            by_label = {
                label: members & kept
                for label, members in self.groups.get(vertex, {}).items()
                if members & kept
            }
            if by_label:
                sub.groups[vertex] = by_label
        return sub


def vertex_groups(
    kb1: KnowledgeBase, kb2: KnowledgeBase, vertex: Pair, vertices
) -> dict[RelPair, set[Pair]]:
    """One vertex's neighbor groups over ``vertices`` (Definition 2).

    Probes each value-set product cell by cell, in the label order of
    :func:`repro.accel.er_graph.accel_groups`.  That kernel builds whole
    graphs; this serves the few vertices a stream splice rebuilds, where
    snapshotting both KBs' adjacency per call would cost more.
    """
    entity1, entity2 = vertex
    by_label: dict[RelPair, set[Pair]] = {}
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
                    (t1, t2) for t1 in targets1 for t2 in targets2 if (t1, t2) in vertices
                }
                if members:
                    by_label[(prefix + r1, prefix + r2)] = members
    return by_label


def build_er_graph(
    kb1: KnowledgeBase,
    kb2: KnowledgeBase,
    vertices: set[Pair],
) -> ERGraph:
    """Construct the ER graph over ``vertices`` (the retained matches).

    For every vertex and every combination of outgoing (and incoming)
    relationships of its two entities, the candidate pairs found inside the
    value-set product become a neighbor group.  Groups are kept per label
    because propagation reasons about one relationship pair at a time.

    The groups come from :func:`repro.accel.er_graph.accel_groups`, which
    joins per-KB adjacency through partner indexes instead of probing
    every value-set product cell, in the same vertex and label order as
    the cell-probing reference (:mod:`repro.accel.reference`).
    """
    # Imported lazily: the accel package imports this module back.
    from repro.accel.er_graph import accel_groups

    graph = ERGraph(vertices=set(vertices))
    graph.groups = accel_groups(kb1, kb2, vertices)
    return graph
