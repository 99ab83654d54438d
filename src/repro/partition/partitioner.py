"""Sharding the ER graph into independently-runnable partitions.

Two mechanisms couple candidate pairs during the human–machine loop:

* **relational match propagation**, which only ever flows along ER-graph
  edges — so weakly-connected components are propagation-independent;
* **the 1:1 competitor demotion**, which resolves every pair *sharing a
  KB entity* with a confirmed match as a non-match — and entity-sharing
  pairs may sit in different graph components.

A partition is therefore only closed under the loop when it unions graph
components up to their *entity closure*: pairs join when they are
graph-adjacent, share their KB1 entity, or share their KB2 entity.  One
walk finds these components (:func:`closure_components`), and a state
keeps them, so a stream update walks only the region its delta touched.
The partitioner:

* puts every entity-closure component whole into exactly one **graph
  shard**, packing small components together (longest-processing-time
  greedy, capped at a maximum shard size) so shards come out balanced;
  isolated pairs that share an entity with a component ride along in the
  shard's retained set — competitor demotion must be able to reach them
  — but are never classified there;
* routes **all isolated pairs** (riders and the truly disconnected rest)
  into classifier-only shards that run after the graph shards, training
  on the merged resolutions — the same data the monolithic isolated-pair
  classifier sees.

The layout is a pure function of the prepared state and the partition
parameters — never of the worker count — which is what makes a
partitioned run reproducible across pool sizes (``workers=4`` merges to
the same result as ``workers=1``).
"""

from __future__ import annotations

import math
from collections.abc import Collection, Iterable, Mapping
from dataclasses import dataclass, replace
from itertools import chain

from repro.core.candidates import CandidateSet
from repro.core.pipeline import PreparedState

Pair = tuple[str, str]

#: Shard kinds.
GRAPH = "graph"
ISOLATED = "isolated"

#: Default number of graph shards the packer aims for.  Deliberately a
#: constant rather than the worker count: the partition layout must not
#: depend on pool size, or results would change with it.
DEFAULT_TARGET_SHARDS = 8


def closure_components(
    pairs: Collection[Pair], groups: Mapping[Pair, Mapping[object, Iterable[Pair]]]
) -> list[frozenset[Pair]]:
    """The entity-closure components of ``pairs``, found by one walk.

    Two pairs join when they share their KB1 or their KB2 entity (a
    by-entity index of ``pairs``) or when one is in an ER-graph neighbor
    group of the other (``groups``, as ``ERGraph.groups``).  Inverse
    labels make the groups symmetric, so following each pair's own
    groups reaches both ends of every edge.  ``pairs`` must be closed
    under both links: no pair outside it shares an entity with one
    inside, and no group of a pair inside names one outside.  Each pair,
    entity and edge is visited once.
    """
    index: tuple[dict[str, list[Pair]], dict[str, list[Pair]]] = ({}, {})
    for pair in pairs:
        index[0].setdefault(pair[0], []).append(pair)
        index[1].setdefault(pair[1], []).append(pair)
    seen: set[Pair] = set()
    components: list[frozenset[Pair]] = []
    for start in pairs:
        if start in seen:
            continue
        seen.add(start)
        component = []
        frontier = [start]
        while frontier:
            pair = frontier.pop()
            component.append(pair)
            # An entity's pairs are linked once: popping its bucket
            # leaves nothing to follow when another of them comes up.
            linked = chain(
                index[0].pop(pair[0], ()),
                index[1].pop(pair[1], ()),
                *groups.get(pair, {}).values(),
            )
            for other in linked:
                if other not in seen:
                    seen.add(other)
                    frontier.append(other)
        components.append(frozenset(component))
    return components


def entity_closure_components(state: PreparedState) -> list[frozenset[Pair]]:
    """Partition the retained pairs into loop-independent groups.

    Pairs land in the same group when connected through any chain of
    ER-graph edges or shared KB entities.  Groups are the finest
    partition the human–machine loop cannot leak across: propagation
    follows edges, competitor demotion follows shared entities.

    The state keeps its groups (``state.components``): the first call
    walks every retained pair and later calls return the kept list.  A
    stream splice hands its state the list ready-made: its parent's
    groups the delta left alone, plus a walk over the rest
    (:func:`repro.stream.incremental.incremental_prepare`).
    """
    if state.components is None:
        state.components = closure_components(state.retained, state.graph.groups)
    return state.components


@dataclass(slots=True)
class Shard:
    """A lightweight descriptor of one partition.

    ``kind`` is :data:`GRAPH` (runs the human–machine loop) or
    :data:`ISOLATED` (classifier-only, executed after the graph shards).
    Shards deliberately carry no :class:`PreparedState`: worker
    processes inherit the base state once (for free under ``fork``) and
    materialize their slice locally via :meth:`slice`, so shipping a
    shard across a process boundary costs only its vertex list.
    """

    shard_id: int
    kind: str
    vertices: tuple[Pair, ...]
    num_components: int
    num_edges: int = 0
    #: Isolated pairs riding along in a graph shard (entity-linked, so
    #: competitor demotion must reach them); never askable here, and
    #: classified later by an isolated shard.
    num_riders: int = 0

    @property
    def num_pairs(self) -> int:
        return len(self.vertices)

    @property
    def num_loop_pairs(self) -> int:
        """Pairs the human–machine loop can actually work on."""
        return len(self.vertices) - self.num_riders

    def slice(self, state: PreparedState, *, localize: bool = False) -> PreparedState:
        """Materialize this shard's self-contained state slice.

        Graph shards restrict the base state to their vertices (with no
        isolated pairs — classification happens in phase 2); isolated
        shards keep the full retained set, vectors and signatures (the
        classifier's neighborhoods span all retained pairs) with
        ``isolated`` cut down to this shard's pairs.

        With ``localize`` (the stream layer's setting) a graph shard's
        candidate set — in particular the initial matches ``M_in`` that
        seed consistency estimation — is restricted to the shard's own
        entities.  That makes the shard's execution a pure function of
        its slice: a KB edit elsewhere cannot shift its relationship
        statistics, which is what lets :mod:`repro.stream` reuse a clean
        shard's recorded outcome verbatim.
        """
        if self.kind != GRAPH:
            return replace(state, isolated=set(self.vertices))
        sliced = state.restrict(set(self.vertices), isolated=set())
        if localize:
            left = {pair[0] for pair in self.vertices}
            right = {pair[1] for pair in self.vertices}
            candidates = state.candidates
            pairs = {
                pair
                for pair in candidates.pairs
                if pair[0] in left and pair[1] in right
            }
            sliced.candidates = CandidateSet(
                pairs=pairs,
                priors={pair: candidates.priors[pair] for pair in pairs},
                initial_matches={
                    pair for pair in candidates.initial_matches if pair in pairs
                },
            )
        return sliced


@dataclass(slots=True)
class PartitionPlan:
    """The full shard layout for one prepared state."""

    shards: list[Shard]
    num_components: int
    num_graph_pairs: int
    num_isolated_pairs: int
    max_shard_size: int

    @property
    def graph_shards(self) -> list[Shard]:
        return [s for s in self.shards if s.kind == GRAPH]

    @property
    def isolated_shards(self) -> list[Shard]:
        return [s for s in self.shards if s.kind == ISOLATED]

    def describe(self) -> str:
        """Human-readable summary for ``repro partition info``.

        ``PAIRS`` counts each shard's vertices; isolated pairs that ride
        along in a graph shard (``RIDERS``) reappear in a classifier
        shard, so the header reports the disjoint loop/isolated split.
        """
        lines = [
            f"{len(self.graph_shards)} graph shard(s) over {self.num_components} "
            f"entity-closure component(s), {self.num_graph_pairs} loop pair(s); "
            f"{self.num_isolated_pairs} isolated pair(s) in "
            f"{len(self.isolated_shards)} classifier shard(s); "
            f"max shard size {self.max_shard_size}",
            f"{'SHARD':>5} {'KIND':<9} {'PAIRS':>6} {'RIDERS':>7} "
            f"{'COMPONENTS':>11} {'EDGES':>7}",
        ]
        for shard in self.shards:
            lines.append(
                f"{shard.shard_id:>5} {shard.kind:<9} {shard.num_pairs:>6} "
                f"{shard.num_riders:>7} {shard.num_components:>11} "
                f"{shard.num_edges:>7}"
            )
        return "\n".join(lines)


def pack_components(
    components: list[frozenset[Pair]], max_shard_size: int
) -> list[list[frozenset[Pair]]]:
    """Greedy LPT packing of components into size-capped bins.

    Components are placed largest-first into the least-loaded bin that
    still has room; a component bigger than the cap gets a bin of its own
    (components are never split — they are the unit of independence).
    Deterministic: ties break on bin index, and the component order is
    fixed by (size, smallest vertex).
    """
    ordered = sorted(components, key=lambda c: (-len(c), min(c)))
    bins: list[tuple[int, list[frozenset[Pair]]]] = []
    for component in ordered:
        candidates = [
            (load, index)
            for index, (load, _) in enumerate(bins)
            if load + len(component) <= max_shard_size
        ]
        if candidates and len(component) <= max_shard_size:
            load, index = min(candidates)
            bins[index] = (load + len(component), bins[index][1] + [component])
        else:
            bins.append((len(component), [component]))
    return [members for _, members in bins]


def partition_state(
    state: PreparedState,
    *,
    max_shard_size: int | None = None,
    target_shards: int = DEFAULT_TARGET_SHARDS,
) -> PartitionPlan:
    """Compute the shard layout for ``state``.

    ``max_shard_size`` caps the number of pairs per graph shard; when
    omitted it is derived as ``ceil(loop pairs / target_shards)``.  The
    isolated pairs form one classifier shard, which keeps classification
    closest to the monolithic run, where signature groups can share seed
    labels.
    """
    if target_shards < 1:
        raise ValueError("target_shards must be positive")
    isolated = set(state.isolated)
    # Pure-isolated groups have no graph vertex at all: nothing for the
    # loop to do, so they go straight to the classifier phase.
    components = [
        component
        for component in entity_closure_components(state)
        if not component <= isolated
    ]
    total_graph_pairs = sum(len(c) for c in components)
    if max_shard_size is None:
        max_shard_size = max(1, math.ceil(total_graph_pairs / target_shards))
    elif max_shard_size < 1:
        raise ValueError("max_shard_size must be positive")

    shards: list[Shard] = []
    for members in pack_components(components, max_shard_size):
        vertices: set[Pair] = set().union(*members)
        # Graph edges never leave an entity-closure component, so every
        # neighbor group of a shard vertex lies wholly inside the shard.
        edges = sum(
            len(group)
            for vertex in vertices
            for group in state.graph.groups.get(vertex, {}).values()
        )
        shards.append(
            Shard(
                shard_id=0,  # assigned after the deterministic sort below
                kind=GRAPH,
                vertices=tuple(sorted(vertices)),
                num_components=len(members),
                num_edges=edges,
                num_riders=len(vertices & isolated),
            )
        )
    # Stable shard ids: order graph shards by their smallest vertex so the
    # layout (and thus every per-shard seed) survives set-iteration order.
    shards.sort(key=lambda s: s.vertices[0] if s.vertices else ("", ""))

    if isolated:
        shards.append(
            Shard(
                shard_id=0,
                kind=ISOLATED,
                vertices=tuple(sorted(isolated)),
                num_components=len(isolated),
            )
        )
    for index, shard in enumerate(shards):
        shard.shard_id = index
    return PartitionPlan(
        shards=shards,
        num_components=len(components),
        # Loop pairs only: riders are counted once, under num_isolated.
        num_graph_pairs=sum(s.num_loop_pairs for s in shards if s.kind == GRAPH),
        num_isolated_pairs=len(isolated),
        max_shard_size=max_shard_size,
    )
