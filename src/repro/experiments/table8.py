"""Table VIII: F1-score of inference on isolated entity pairs.

Per dataset: the share of gold matches that are isolated (no relationships
on either side), the full Remp F1, and the F1 of the random-forest
classifier measured on the isolated gold subset alone.
Expected shape: the classifier is unreliable when isolated matches are a
tiny fraction (IIMB, D-A) and approaches Remp's overall quality when they
dominate (I-Y, D-Y).
"""

from __future__ import annotations

from repro.core import Remp
from repro.datasets import DATASET_NAMES
from repro.eval import evaluate_matches
from repro.experiments.common import (
    REAL_WORKER_ERROR_RATE,
    ExperimentResult,
    display_name,
    load,
    percent,
    prepared_state,
)
from repro.partition import CrowdSpec


def run(
    scale: float = 1.0, seed: int = 0, datasets: tuple[str, ...] = DATASET_NAMES
) -> ExperimentResult:
    headers = ["Dataset", "Isolated matches", "Remp F1", "Random forest F1"]
    rows = []
    raw: dict = {}
    for dataset in datasets:
        bundle = load(dataset, seed=seed, scale=scale)
        state = prepared_state(bundle)
        platform = CrowdSpec(bundle.gold_matches, REAL_WORKER_ERROR_RATE).build_seeded(seed)
        result = Remp().run(bundle.kb1, bundle.kb2, platform, state=state)

        isolated_gold = {
            pair
            for pair in bundle.gold_matches
            if not bundle.kb1.has_relations(pair[0]) and not bundle.kb2.has_relations(pair[1])
        }
        share = len(isolated_gold) / len(bundle.gold_matches) if bundle.gold_matches else 0.0
        overall = evaluate_matches(result.matches, bundle.gold_matches)
        forest_predictions = result.isolated_matches | {
            p for p in result.labeled_matches if p in state.isolated
        }
        forest_quality = evaluate_matches(forest_predictions, isolated_gold)
        rows.append(
            [
                display_name(dataset),
                percent(share),
                percent(overall.f1),
                percent(forest_quality.f1),
            ]
        )
        raw[dataset] = {
            "isolated_share": share,
            "remp_f1": overall.f1,
            "forest_f1": forest_quality.f1,
        }
    return ExperimentResult(
        "Table VIII: F1-score of inference on isolated entity pairs",
        headers,
        rows,
        raw,
    )


def main() -> None:
    print(run().render())


if __name__ == "__main__":
    main()
