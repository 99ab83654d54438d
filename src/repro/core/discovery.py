"""Inferred-match-set discovery — Algorithm 2 (Section VI-B).

With edge lengths ``length(v, v') = −log Pr[m_{v'} | m_v]``, the distant
propagation probability Pr[m_p | m_q] is ``exp(−dist(q, p))`` for the
shortest path distance, and the inferral condition Pr ≥ τ becomes
``dist(q, p) ≤ ζ = −log τ``.

Two implementations compute the same sets:

* :func:`dijkstra_inferred_sets` — a ζ-bounded Dijkstra from every source,
  asymptotically better on the sparse graphs propagation produces.  The
  loop runs it source by source through
  :class:`repro.accel.propagation.IncrementalPropagator`.
* :func:`floyd_warshall_inferred_sets` — the paper's modified
  Floyd–Warshall (Algorithm 2), maintaining per-vertex distance maps (the
  paper's "binary trees" are ordered maps; Python dicts give the same
  operations) and only iterating over the ζ-bounded neighborhoods.  No
  product path runs it; the tests and the ablation bench hold Dijkstra's
  sets to it.

Both return, for every candidate question ``q``, the map from inferred
pairs to their distances.
"""

from __future__ import annotations

import heapq
import math
from typing import Iterable

from repro.core.propagation import ProbabilisticERGraph

Pair = tuple[str, str]
DistanceMap = dict[Pair, float]


def zeta_from_tau(tau: float) -> float:
    """Distance budget ζ = −log τ for the precision threshold τ."""
    if not 0.0 < tau <= 1.0:
        raise ValueError("tau must be in (0, 1]")
    return -math.log(tau)


def edge_length_row(targets: DistanceMap, zeta: float) -> DistanceMap:
    """One vertex's −log edge lengths, keeping only edges within budget ζ.

    Shared by :func:`edge_lengths` and the incremental propagator
    (:mod:`repro.accel.propagation`), which splices rows vertex-by-vertex
    — one code path guarantees identical rounding and insertion order.
    """
    row: DistanceMap = {}
    for target, probability in targets.items():
        if probability <= 0.0:
            continue
        length = -math.log(min(1.0, probability))
        if length <= zeta:
            row[target] = length
    return row


def edge_lengths(graph: ProbabilisticERGraph, zeta: float) -> dict[Pair, DistanceMap]:
    """−log edge lengths, keeping only edges usable within budget ζ."""
    lengths: dict[Pair, DistanceMap] = {}
    for source, targets in graph.edge_probs.items():
        row = edge_length_row(targets, zeta)
        if row:
            lengths[source] = row
    return lengths


def bounded_dijkstra(
    lengths: dict[Pair, DistanceMap], source: Pair, zeta: float
) -> DistanceMap:
    """Shortest distances from ``source`` truncated at ζ (source included)."""
    distances: DistanceMap = {source: 0.0}
    heap: list[tuple[float, Pair]] = [(0.0, source)]
    while heap:
        dist, vertex = heapq.heappop(heap)
        if dist > distances.get(vertex, math.inf):
            continue
        for neighbor, length in lengths.get(vertex, {}).items():
            candidate = dist + length
            if candidate <= zeta and candidate < distances.get(neighbor, math.inf):
                distances[neighbor] = candidate
                heapq.heappush(heap, (candidate, neighbor))
    return distances


def dijkstra_inferred_sets(
    graph: ProbabilisticERGraph,
    sources: Iterable[Pair],
    tau: float,
) -> dict[Pair, DistanceMap]:
    """ζ-bounded single-source searches from every candidate question."""
    zeta = zeta_from_tau(tau)
    lengths = edge_lengths(graph, zeta)
    return {source: bounded_dijkstra(lengths, source, zeta) for source in sources}


def floyd_warshall_inferred_sets(
    graph: ProbabilisticERGraph,
    sources: Iterable[Pair],
    tau: float,
) -> dict[Pair, DistanceMap]:
    """Algorithm 2: dynamic-programming all-pairs discovery.

    ``bt[q]`` maps inferred pairs to distances (the paper's forward binary
    tree) and ``bt_inv[q]`` maps pairs that can infer ``q`` (the backward
    tree).  Relaxation combines a path into ``q`` with a path out of ``q``,
    keeping only combinations within ζ, mirroring Lines 6–11 of the paper.
    """
    zeta = zeta_from_tau(tau)
    lengths = edge_lengths(graph, zeta)

    vertices: set[Pair] = set(lengths)
    for row in lengths.values():
        vertices.update(row)
    vertices.update(sources)

    bt: dict[Pair, DistanceMap] = {v: {} for v in vertices}
    bt_inv: dict[Pair, DistanceMap] = {v: {} for v in vertices}
    for source, row in lengths.items():
        for target, length in row.items():
            if length <= zeta and source != target:
                bt[source][target] = min(length, bt[source].get(target, math.inf))
                bt_inv[target][source] = bt[source][target]

    for via in vertices:
        out_edges = list(bt[via].items())
        in_edges = list(bt_inv[via].items())
        for target, d_out in out_edges:
            for origin, d_in in in_edges:
                if origin == target:
                    continue
                total = d_in + d_out
                if total <= zeta and total < bt[origin].get(target, math.inf):
                    bt[origin][target] = total
                    bt_inv[target][origin] = total

    result: dict[Pair, DistanceMap] = {}
    for source in sources:
        distances = dict(bt.get(source, {}))
        distances[source] = 0.0
        result[source] = distances
    return result
