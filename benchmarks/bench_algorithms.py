"""Micro-benchmarks for the core algorithms (not tied to one paper artifact)."""

import random

import numpy as np

from repro.assignment import hungarian_min
from repro.core import Remp
from repro.core.discovery import dijkstra_inferred_sets
from repro.core.propagation import ProbabilisticERGraph
from repro.core.pruning import partial_order_pruning
from repro.core.selection import gain_bands, greedy_question_selection, initial_gains
from repro.datasets import load_dataset
from repro.ml import RandomForestClassifier


def test_hungarian_40x40(benchmark):
    rng = np.random.default_rng(0)
    cost = rng.uniform(0, 1, size=(40, 40)).tolist()
    pairs = benchmark(hungarian_min, cost)
    assert len(pairs) == 40


def test_pruning_imdb_yago(benchmark):
    bundle = load_dataset("imdb_yago", seed=0, scale=0.5)
    state = Remp().prepare(bundle.kb1, bundle.kb2)
    retained = benchmark(
        partial_order_pruning, state.candidates.pairs, state.vector_index, 4
    )
    assert retained <= state.candidates.pairs


def _random_prob_graph(n=300, edges=1200, seed=0):
    rng = random.Random(seed)
    graph = ProbabilisticERGraph()
    for _ in range(edges):
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            graph.set_edge((f"v{i}", ""), (f"v{j}", ""), rng.uniform(0.9, 1.0))
    return graph


def test_discovery_dijkstra(benchmark):
    graph = _random_prob_graph()
    sources = [(f"v{i}", "") for i in range(300)]
    sets = benchmark(dijkstra_inferred_sets, graph, sources, 0.9)
    assert len(sets) == 300


def test_greedy_selection(benchmark):
    graph = _random_prob_graph()
    sources = [(f"v{i}", "") for i in range(300)]
    inferred = dijkstra_inferred_sets(graph, sources, 0.9)
    priors = {s: 0.7 for s in sources}
    def select():
        bands = gain_bands(initial_gains(sources, inferred, priors))
        return greedy_question_selection(bands, inferred, priors, 10)

    selected = benchmark(select)
    assert 0 < len(selected) <= 10


def test_random_forest_fit(benchmark):
    rng = np.random.default_rng(1)
    X = rng.uniform(0, 1, size=(300, 5))
    y = (X[:, 0] + X[:, 3] > 1.0).astype(float)
    model = benchmark(
        lambda: RandomForestClassifier(n_estimators=20, seed=0).fit(X, y)
    )
    assert model.is_fitted
