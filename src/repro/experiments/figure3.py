"""Figure 3: F1-score and #questions under varying worker error rates.

Simulated workers mislabel with probability 0.05 / 0.15 / 0.25 (following
HIKE's protocol).  Expected shape: every approach is roughly stable in F1
(robust truth inference), Remp keeps the best F1 and fewest questions.
"""

from __future__ import annotations

from repro.baselines import Corleone, Hike, Power
from repro.core import Remp
from repro.datasets import DATASET_NAMES
from repro.eval import evaluate_matches
from repro.experiments.common import (
    ExperimentResult,
    display_name,
    load,
    percent,
    prepared_state,
)
from repro.partition import CrowdSpec

ERROR_RATES = (0.05, 0.15, 0.25)


def run(
    scale: float = 1.0,
    seed: int = 0,
    datasets: tuple[str, ...] = DATASET_NAMES,
    error_rates: tuple[float, ...] = ERROR_RATES,
) -> ExperimentResult:
    headers = ["Dataset", "Error rate"]
    for approach in ("Remp", "HIKE", "POWER", "Corleone"):
        headers += [f"{approach} F1", f"{approach} #Q"]
    rows = []
    raw: dict = {}
    for dataset in datasets:
        bundle = load(dataset, seed=seed, scale=scale)
        state = prepared_state(bundle)
        for error_rate in error_rates:
            platform = CrowdSpec(bundle.gold_matches, error_rate).build_seeded(seed)
            row = [display_name(dataset), f"{error_rate:.2f}"]
            cells: dict[str, tuple[float, int]] = {}

            remp_result = Remp().run(bundle.kb1, bundle.kb2, platform, state=state)
            quality = evaluate_matches(remp_result.matches, bundle.gold_matches)
            cells["Remp"] = (quality.f1, remp_result.questions_asked)

            for approach in (Hike(), Power(), Corleone()):
                platform.reset_billing()
                result = approach.run(state, platform)
                q = evaluate_matches(result.matches, bundle.gold_matches)
                cells[result.name] = (q.f1, result.questions_asked)

            for approach in ("Remp", "HIKE", "POWER", "Corleone"):
                f1, questions = cells[approach]
                row += [percent(f1), str(questions)]
            rows.append(row)
            raw[(dataset, error_rate)] = cells
    return ExperimentResult(
        "Figure 3: F1-score and #questions w.r.t. simulated worker error rates",
        headers,
        rows,
        raw,
    )


def main() -> None:
    print(run().render())


if __name__ == "__main__":
    main()
