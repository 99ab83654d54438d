"""Tests for inferred-match-set discovery (Algorithm 2)."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import RempConfig
from repro.core.consistency import estimate_all_consistencies
from repro.core.discovery import (
    bounded_dijkstra,
    dijkstra_inferred_sets,
    edge_lengths,
    floyd_warshall_inferred_sets,
    zeta_from_tau,
)
from repro.core.propagation import ProbabilisticERGraph, build_probabilistic_graph


def _chain_graph(probabilities):
    """v0 -> v1 -> ... with the given edge probabilities."""
    graph = ProbabilisticERGraph()
    for i, p in enumerate(probabilities):
        graph.set_edge((f"v{i}", f"v{i}"), (f"v{i+1}", f"v{i+1}"), p)
    return graph


def test_zeta_from_tau():
    assert zeta_from_tau(1.0) == 0.0
    assert zeta_from_tau(0.9) == pytest.approx(-math.log(0.9))
    with pytest.raises(ValueError):
        zeta_from_tau(0.0)


def test_edge_lengths_drop_over_budget():
    graph = _chain_graph([0.99, 0.5])
    lengths = edge_lengths(graph, zeta_from_tau(0.9))
    v0, v1 = ("v0", "v0"), ("v1", "v1")
    assert v1 in lengths[v0]
    assert v1 not in lengths or ("v2", "v2") not in lengths.get(v1, {})


def test_single_hop_inference():
    graph = _chain_graph([0.95])
    sets = dijkstra_inferred_sets(graph, [("v0", "v0")], tau=0.9)
    inferred = sets[("v0", "v0")]
    assert ("v0", "v0") in inferred  # the question itself, distance 0
    assert ("v1", "v1") in inferred


def test_multi_hop_product_bound():
    # 0.95 * 0.95 ≈ 0.9025 >= 0.9 -> two hops allowed; three hops not.
    graph = _chain_graph([0.95, 0.95, 0.95])
    sets = dijkstra_inferred_sets(graph, [("v0", "v0")], tau=0.9)
    inferred = sets[("v0", "v0")]
    assert ("v2", "v2") in inferred
    assert ("v3", "v3") not in inferred


def test_best_path_wins():
    """Distant probability is the max over paths (largest lower bound)."""
    graph = ProbabilisticERGraph()
    a, b, c = ("a", "a"), ("b", "b"), ("c", "c")
    graph.set_edge(a, b, 0.5)   # direct but weak
    graph.set_edge(a, c, 0.99)  # detour
    graph.set_edge(c, b, 0.99)
    sets = dijkstra_inferred_sets(graph, [a], tau=0.9)
    assert b in sets[a]  # 0.99^2 ≈ 0.98 >= 0.9 via the detour


def test_bounded_dijkstra_distances():
    graph = _chain_graph([0.95, 0.95])
    lengths = edge_lengths(graph, zeta_from_tau(0.5))
    dist = bounded_dijkstra(lengths, ("v0", "v0"), zeta_from_tau(0.5))
    assert dist[("v0", "v0")] == 0.0
    assert dist[("v2", "v2")] == pytest.approx(-2 * math.log(0.95))


def test_floyd_warshall_matches_dijkstra_on_chain():
    graph = _chain_graph([0.97, 0.96, 0.99, 0.95])
    sources = [(f"v{i}", f"v{i}") for i in range(5)]
    a = dijkstra_inferred_sets(graph, sources, tau=0.9)
    b = floyd_warshall_inferred_sets(graph, sources, tau=0.9)
    for source in sources:
        assert set(a[source]) == set(b[source])
        for target in a[source]:
            assert a[source][target] == pytest.approx(b[source][target], abs=1e-9)


@settings(max_examples=30, deadline=None)
@given(
    edges=st.lists(
        st.tuples(st.integers(0, 7), st.integers(0, 7), st.floats(0.05, 1.0)),
        max_size=24,
    ),
    tau=st.sampled_from([0.5, 0.8, 0.9, 0.95]),
)
def test_fw_equals_dijkstra_on_random_graphs(edges, tau):
    graph = ProbabilisticERGraph()
    for i, j, p in edges:
        if i != j:
            graph.set_edge((f"v{i}", ""), (f"v{j}", ""), p)
    sources = [(f"v{i}", "") for i in range(8)]
    a = dijkstra_inferred_sets(graph, sources, tau=tau)
    b = floyd_warshall_inferred_sets(graph, sources, tau=tau)
    for source in sources:
        assert set(a[source]) == set(b[source])
        for target in a[source]:
            assert a[source][target] == pytest.approx(b[source][target], abs=1e-9)


def test_floyd_warshall_matches_dijkstra_on_a_prepared_world(prepared_iimb_04):
    """Algorithm 2 and Dijkstra agree on a real probabilistic graph.

    The graph is the one the loop's first propagate builds on a prepared
    ``iimb`` world: consistencies estimated from ``M_in``, the prepared
    priors, τ = 0.9, every vertex with neighbor groups a source.
    """
    state = prepared_iimb_04
    config = RempConfig()
    labels = {label for by_label in state.graph.groups.values() for label in by_label}
    consistencies = estimate_all_consistencies(
        state.kb1, state.kb2, labels, state.candidates.initial_matches
    )
    graph = build_probabilistic_graph(
        state.graph, state.kb1, state.kb2, state.priors, consistencies, config
    )
    sources = sorted(v for v in state.retained if state.graph.groups.get(v))
    a = dijkstra_inferred_sets(graph, sources, config.tau)
    b = floyd_warshall_inferred_sets(graph, sources, config.tau)
    assert any(len(inferred) > 1 for inferred in a.values())
    assert a.keys() == b.keys()
    for source in sources:
        assert a[source].keys() == b[source].keys()
        for target, distance in a[source].items():
            assert distance == pytest.approx(b[source][target], abs=1e-9)
