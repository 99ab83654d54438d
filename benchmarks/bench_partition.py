"""Benchmark: partitioned parallel execution vs sequential execution.

The clustered dataset decomposes into one entity-closure component per
studio cluster, so the partition layer can fan the human–machine loop
across a process pool.  ``test_partition_speedup`` times prepare+loop
end-to-end for ``workers=1`` and ``workers=N`` and prints the wall-clock
speedup; on a machine with ≥ 4 usable cores it asserts the ≥ 2x
acceptance bar.  The pytest-benchmark cases time each mode individually.

Scale knobs (environment):

``REPRO_BENCH_CLUSTERS``  number of clusters/components (default 24)
``REPRO_BENCH_MOVIES``    movies per cluster (default 16)
``REPRO_BENCH_WORKERS``   pool size for the parallel case (default 4)

CI runs this file at tiny scale (see the workflow's bench-smoke step) to
keep the harness itself honest; the speedup assertion self-gates on the
available cores, so the smoke run checks correctness, not throughput.
"""

import os
import time

import pytest

from repro.core import Remp
from repro.datasets import clustered_bundle
from repro.eval import evaluate_matches
from repro.partition import CrowdSpec, ParallelRunner, partition_state

CLUSTERS = int(os.environ.get("REPRO_BENCH_CLUSTERS", "24"))
MOVIES = int(os.environ.get("REPRO_BENCH_MOVIES", "16"))
WORKERS = int(os.environ.get("REPRO_BENCH_WORKERS", "4"))
LABEL_NOISE = 0.5
ERROR_RATE = 0.05


def _bundle():
    return clustered_bundle(
        num_clusters=CLUSTERS,
        movies_per_cluster=MOVIES,
        seed=0,
        label_noise=LABEL_NOISE,
    )


def _crowd(bundle):
    return CrowdSpec(truth=bundle.gold_matches, error_rate=ERROR_RATE, seed=0)


def _prepare_and_run(bundle, workers):
    """The full pipeline one shard-parallel run amortizes: prepare + loop."""
    state = Remp().prepare(bundle.kb1, bundle.kb2)
    runner = ParallelRunner(workers=workers, target_shards=CLUSTERS)
    return runner.run(state, _crowd(bundle))


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def test_partition_prepare_and_loop_sequential(benchmark):
    bundle = _bundle()
    result = benchmark.pedantic(
        _prepare_and_run, args=(bundle, 1), rounds=1, iterations=1
    )
    assert result.matches


def test_partition_prepare_and_loop_pool(benchmark):
    bundle = _bundle()
    result = benchmark.pedantic(
        _prepare_and_run, args=(bundle, WORKERS), rounds=1, iterations=1
    )
    assert result.matches


def test_partition_speedup():
    """Prepare+loop wall clock, sequential vs pool, with ≥ 8 components."""
    bundle = _bundle()
    state = Remp().prepare(bundle.kb1, bundle.kb2)
    plan = partition_state(state, target_shards=CLUSTERS)
    assert plan.num_components >= min(8, CLUSTERS)

    start = time.perf_counter()
    sequential = _prepare_and_run(bundle, 1)
    t_sequential = time.perf_counter() - start
    start = time.perf_counter()
    pooled = _prepare_and_run(bundle, WORKERS)
    t_pooled = time.perf_counter() - start

    assert pooled.matches == sequential.matches
    assert pooled.questions_asked == sequential.questions_asked
    quality = evaluate_matches(pooled.matches, bundle.gold_matches)
    speedup = t_sequential / t_pooled if t_pooled else float("inf")
    cores = _usable_cores()
    print(
        f"\n{CLUSTERS} components x {MOVIES} movies, {WORKERS} workers, "
        f"{cores} usable cores: sequential {t_sequential:.2f}s, "
        f"pool {t_pooled:.2f}s -> {speedup:.2f}x speedup "
        f"({quality.as_row()}, {pooled.questions_asked} questions)"
    )
    if cores >= 4 and WORKERS >= 4:
        assert speedup >= 2.0, (
            f"expected >= 2x on {cores} cores, measured {speedup:.2f}x"
        )
    else:
        pytest.skip(
            f"speedup assertion needs >= 4 usable cores (have {cores}); "
            f"measured {speedup:.2f}x"
        )
