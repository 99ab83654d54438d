"""Figure 6: running time of Algorithms 1–3 w.r.t. portion of entity pairs.

Times partial-order pruning (Algorithm 1) on growing portions of the
candidate matches, and inferred-set discovery (Algorithm 2) plus greedy
question selection (Algorithm 3) on growing portions of the retained
matches, on the largest dataset (D-Y profile).
Expected shape: near-linear growth for Algorithms 1 and 2; Algorithm 3
flatter at small portions (inferred-set sizes saturate).
"""

from __future__ import annotations

import random
import time

from repro.core import Remp, RempConfig
from repro.core.consistency import estimate_all_consistencies
from repro.core.discovery import dijkstra_inferred_sets
from repro.core.er_graph import build_er_graph
from repro.core.propagation import build_probabilistic_graph
from repro.core.pruning import partial_order_pruning
from repro.core.selection import gain_bands, greedy_question_selection, initial_gains
from repro.core.vectors import VectorIndex
from repro.experiments.common import ExperimentResult, load

PORTIONS = (0.25, 0.5, 0.75, 1.0)


def run(
    scale: float = 1.0,
    seed: int = 0,
    dataset: str = "dbpedia_yago",
    portions: tuple[float, ...] = PORTIONS,
) -> ExperimentResult:
    bundle = load(dataset, seed=seed, scale=scale)
    config = RempConfig()
    state = Remp(config).prepare(bundle.kb1, bundle.kb2)
    rng = random.Random(seed)
    candidates = sorted(state.candidates.pairs)
    retained = sorted(state.retained)

    rows = []
    raw: dict = {"alg1": {}, "alg2": {}, "alg3": {}}
    for portion in portions:
        sample_c = set(rng.sample(candidates, int(portion * len(candidates))))
        index = VectorIndex({p: state.vector_index.vectors[p] for p in sample_c})
        start = time.perf_counter()
        partial_order_pruning(sample_c, index, config.k)
        alg1 = time.perf_counter() - start

        sample_r = set(rng.sample(retained, int(portion * len(retained))))
        graph = build_er_graph(bundle.kb1, bundle.kb2, sample_r)
        labels = {label for by_label in graph.groups.values() for label in by_label}
        consistencies = estimate_all_consistencies(
            bundle.kb1, bundle.kb2, labels, state.candidates.initial_matches
        )
        priors = {p: state.priors.get(p, 0.5) for p in sample_r}
        prob_graph = build_probabilistic_graph(
            graph, bundle.kb1, bundle.kb2, priors, consistencies, config
        )
        sources = [p for p in sorted(sample_r) if graph.groups.get(p)]
        start = time.perf_counter()
        sets = dijkstra_inferred_sets(prob_graph, sources, config.tau)
        alg2 = time.perf_counter() - start

        start = time.perf_counter()
        bands = gain_bands(initial_gains(sources, sets, priors))
        greedy_question_selection(bands, sets, priors, config.mu)
        alg3 = time.perf_counter() - start

        rows.append(
            [
                f"{int(portion * 100)}%",
                f"{alg1:.3f}s",
                f"{alg2:.3f}s",
                f"{alg3:.3f}s",
            ]
        )
        raw["alg1"][portion] = alg1
        raw["alg2"][portion] = alg2
        raw["alg3"][portion] = alg3
    return ExperimentResult(
        f"Figure 6: running time w.r.t. portion of entity pairs ({dataset})",
        ["Portion", "Algorithm 1", "Algorithm 2", "Algorithm 3"],
        rows,
        raw,
    )


def main() -> None:
    print(run().render())


if __name__ == "__main__":
    main()
