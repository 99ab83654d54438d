"""Ablation benches for three design decisions: Dijkstra against Floyd–Warshall
inferred-set discovery, the exact-marginal group cap and one-to-one demotion."""

import random

from repro.core import Remp, RempConfig
from repro.core.consistency import Consistency
from repro.core.discovery import floyd_warshall_inferred_sets, dijkstra_inferred_sets
from repro.core.propagation import ProbabilisticERGraph, neighbor_marginals
from repro.crowd import CrowdPlatform
from repro.datasets import load_dataset
from repro.eval import evaluate_matches


def _graph(n=120, edges=400, seed=3):
    rng = random.Random(seed)
    graph = ProbabilisticERGraph()
    for _ in range(edges):
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            graph.set_edge((f"v{i}", ""), (f"v{j}", ""), rng.uniform(0.9, 1.0))
    return graph


def test_ablation_discovery_floyd_warshall(benchmark):
    """The paper's Algorithm 2; compare its timing against Dijkstra below."""
    graph = _graph()
    sources = [(f"v{i}", "") for i in range(120)]
    sets = benchmark(floyd_warshall_inferred_sets, graph, sources, 0.9)
    reference = dijkstra_inferred_sets(graph, sources, 0.9)
    assert {s: set(d) for s, d in sets.items()} == {
        s: set(d) for s, d in reference.items()
    }


def test_ablation_discovery_dijkstra(benchmark):
    graph = _graph()
    sources = [(f"v{i}", "") for i in range(120)]
    sets = benchmark(dijkstra_inferred_sets, graph, sources, 0.9)
    assert len(sets) == 120


def test_ablation_marginal_group_cap(benchmark):
    """Exact marginalization cap: smaller caps trade accuracy for speed."""
    group = {(f"a{i}", f"b{j}") for i in range(6) for j in range(6)}
    priors = {p: (0.9 if p[0][1:] == p[1][1:] else 0.3) for p in group}
    consistency = Consistency(0.9, 0.9, 10)

    def run_both():
        tight = neighbor_marginals(
            group, priors, consistency, RempConfig(max_exact_pairs=8)
        )
        loose = neighbor_marginals(
            group, priors, consistency, RempConfig(max_exact_pairs=16)
        )
        return tight, loose

    tight, loose = benchmark(run_both)
    # Diagonal pairs dominate under both caps.
    for i in range(6):
        assert tight[(f"a{i}", f"b{i}")] > 0.4
        assert loose[(f"a{i}", f"b{i}")] > 0.4


def test_ablation_one_to_one_demotion(benchmark):
    """The 1:1 demotion rule: turning it off costs questions and precision."""
    bundle = load_dataset("iimb", seed=0, scale=0.4)

    def run_pair():
        results = {}
        for enforce in (True, False):
            platform = CrowdPlatform.with_oracle(bundle.gold_matches)
            config = RempConfig(enforce_one_to_one=enforce)
            result = Remp(config).run(bundle.kb1, bundle.kb2, platform)
            quality = evaluate_matches(result.matches, bundle.gold_matches)
            results[enforce] = (quality.f1, result.questions_asked)
        return results

    results = benchmark.pedantic(run_pair, rounds=1, iterations=1)
    print()
    for enforce, (f1, questions) in results.items():
        print(f"  enforce_one_to_one={enforce}: F1={f1:.1%} #Q={questions}")
    assert results[True][0] > 0.7
