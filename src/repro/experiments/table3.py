"""Table III: F1-score and number of questions with (simulated) real workers.

Remp vs HIKE, POWER and Corleone on all four datasets, with a 95%-accuracy
worker pool, five labels per question and label reuse across approaches.
Expected shape: Remp attains the best F1 with the fewest questions, with
the largest savings on relationship-rich heterogeneous datasets.
"""

from __future__ import annotations

from repro.baselines import Corleone, Hike, Power
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


def run(scale: float = 1.0, seed: int = 0, datasets: tuple[str, ...] = DATASET_NAMES) -> ExperimentResult:
    headers = ["Dataset"]
    for approach in ("Remp", "HIKE", "POWER", "Corleone"):
        headers += [f"{approach} F1", f"{approach} #Q"]
    rows = []
    raw: dict = {}
    for dataset in datasets:
        bundle = load(dataset, seed=seed, scale=scale)
        state = prepared_state(bundle)
        platform = CrowdSpec(bundle.gold_matches, REAL_WORKER_ERROR_RATE).build_seeded(seed)
        row = [display_name(dataset)]
        cells: dict[str, tuple[float, int]] = {}

        remp_result = Remp().run(bundle.kb1, bundle.kb2, platform, state=state)
        remp_quality = evaluate_matches(remp_result.matches, bundle.gold_matches)
        cells["Remp"] = (remp_quality.f1, remp_result.questions_asked)

        for approach in (Hike(), Power(), Corleone()):
            platform.reset_billing()
            result = approach.run(state, platform)
            quality = evaluate_matches(result.matches, bundle.gold_matches)
            cells[result.name] = (quality.f1, result.questions_asked)

        for approach in ("Remp", "HIKE", "POWER", "Corleone"):
            f1, questions = cells[approach]
            row += [percent(f1), str(questions)]
        rows.append(row)
        raw[dataset] = cells
    return ExperimentResult(
        "Table III: F1-score and number of questions with real(-quality) workers",
        headers,
        rows,
        raw,
    )


def main() -> None:
    print(run().render())


if __name__ == "__main__":
    main()
