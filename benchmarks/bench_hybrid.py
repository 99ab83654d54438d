"""Ablation bench: base Remp vs the hybrid extension (``repro.core.hybrid``).

The hybrid adds entity-local partial-order inference to every crowd label
(the paper's stated future work); the bench reports both systems' F1 and
question counts side by side.
"""

from repro.core import Remp
from repro.core.hybrid import HybridRemp
from repro.crowd import CrowdPlatform
from repro.datasets import load_dataset
from repro.eval import evaluate_matches

SCALE = 0.4


def test_hybrid_vs_base(benchmark):
    def run_both():
        rows = {}
        for name in ("iimb", "dblp_acm"):
            bundle = load_dataset(name, seed=0, scale=SCALE)
            for label, system in (("base", Remp()), ("hybrid", HybridRemp())):
                platform = CrowdPlatform.with_oracle(bundle.gold_matches)
                result = system.run(bundle.kb1, bundle.kb2, platform)
                quality = evaluate_matches(result.matches, bundle.gold_matches)
                rows[(name, label)] = (quality.f1, result.questions_asked)
        return rows

    rows = benchmark.pedantic(run_both, rounds=1, iterations=1)
    print()
    for (dataset, label), (f1, questions) in sorted(rows.items()):
        print(f"  {dataset:10s} {label:6s} F1={f1:6.1%} #Q={questions}")
    for dataset in ("iimb", "dblp_acm"):
        assert rows[(dataset, "hybrid")][0] > rows[(dataset, "base")][0] - 0.1
