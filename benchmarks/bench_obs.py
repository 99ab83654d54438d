"""Benchmark: tracing overhead of the run-scoped observability layer.

Runs the full human–machine loop on a clustered world twice — once with
tracing enabled (the default) and once under ``REPRO_NO_TRACE=1`` — and
grades the relative wall-clock overhead of span collection.  Tracing is
on by default precisely because it is supposed to be nearly free; this
bench holds that claim to **<= 3%** overhead.

The comparison self-gates the same way ``bench_prepare`` does: when the
untraced baseline is too fast to time reliably (tiny CI smoke scales)
the bar is skipped and only harness correctness — byte-identical
results between the two modes — is asserted.  Each mode is measured
best-of-``REPRO_BENCH_OBS_ROUNDS`` (default 3) to shave scheduler noise.

Scale knobs (environment):

``REPRO_BENCH_OBS_CLUSTERS``   clusters in the workload (default 16)
``REPRO_BENCH_OBS_MOVIES``     movies per cluster (default 12)
``REPRO_BENCH_OBS_ROUNDS``     timing rounds per mode (default 3)

Every run writes ``BENCH_obs.json`` (overridable via
``REPRO_BENCH_OBS_TRAJECTORY``) in the run-artifact metrics shape
(:func:`repro.obs.benchmark_metrics_doc`), so CI uploads a
machine-readable overhead record even when the bar is skipped, and
appends each sample to the unified ``BENCH_history.jsonl`` trajectory
(:func:`repro.obs.append_bench_history`) that ``repro bench compare``
diffs across CI runs.
"""

import json
import os
import time
from pathlib import Path

import pytest

from repro.core import Remp
from repro.crowd import CrowdPlatform
from repro.datasets import clustered_bundle
from repro.obs import (
    MetricsRegistry,
    RunScope,
    append_bench_history,
    benchmark_metrics_doc,
)
from repro.store.serialize import result_to_doc

CLUSTERS = int(os.environ.get("REPRO_BENCH_OBS_CLUSTERS", "16"))
MOVIES = int(os.environ.get("REPRO_BENCH_OBS_MOVIES", "12"))
ROUNDS = int(os.environ.get("REPRO_BENCH_OBS_ROUNDS", "3"))
ERROR_RATE = 0.05

#: Maximum tolerated tracing overhead, relative to the untraced run.
MAX_OVERHEAD = 0.03

#: Untraced wall-clock below which an overhead ratio is noise, not signal.
MIN_MEASURABLE_SECONDS = 2.0

TRAJECTORY_PATH = Path(
    os.environ.get("REPRO_BENCH_OBS_TRAJECTORY", "BENCH_obs.json")
)


def _bundle():
    return clustered_bundle(
        num_clusters=CLUSTERS,
        movies_per_cluster=MOVIES,
        seed=0,
        label_noise=0.5,
    )


def _timed_run(bundle, traced: bool):
    """(best wall seconds, result doc, scope of the best round)."""
    best = float("inf")
    doc = None
    best_scope = None
    for _ in range(ROUNDS):
        scope = RunScope("bench-obs", trace=traced)
        platform = CrowdPlatform.with_simulated_workers(
            bundle.gold_matches, error_rate=ERROR_RATE, seed=0
        )
        start = time.perf_counter()
        with scope.activate():
            result = Remp().run(bundle.kb1, bundle.kb2, platform)
        elapsed = time.perf_counter() - start
        if elapsed < best:
            best = elapsed
            doc = result_to_doc(result)
            best_scope = scope
    return best, doc, best_scope


def test_tracing_overhead():
    """Traced vs untraced full run: byte-identical results, <= 3% slower."""
    bundle = _bundle()
    # Warm caches (dataset generation, normalize memo) outside the clock.
    _timed_run(bundle, traced=False)
    t_off, doc_off, _ = _timed_run(bundle, traced=False)
    t_on, doc_on, scope = _timed_run(bundle, traced=True)
    span_count = len(scope.tracer.spans())
    assert json.dumps(doc_on, sort_keys=True) == json.dumps(
        doc_off, sort_keys=True
    ), "tracing perturbed the run result"
    assert span_count > 0, "traced run collected no spans"
    overhead = (t_on - t_off) / t_off if t_off else 0.0
    print(
        f"\nobs overhead ({CLUSTERS}x{MOVIES}): traced {t_on:.3f}s, "
        f"untraced {t_off:.3f}s -> {overhead:+.2%} "
        f"({span_count} spans)"
    )

    meta = {
        "bench": "obs",
        "clusters": CLUSTERS,
        "movies": MOVIES,
        "rounds": ROUNDS,
        "measurable": t_off >= MIN_MEASURABLE_SECONDS,
    }
    registry = MetricsRegistry()
    registry.count("bench.spans", span_count)
    registry.gauge("bench.traced_seconds", round(t_on, 4))
    registry.gauge("bench.untraced_seconds", round(t_off, 4))
    registry.gauge("bench.overhead", round(overhead, 4))
    TRAJECTORY_PATH.write_text(
        json.dumps(
            benchmark_metrics_doc(meta, registry.as_doc()),
            indent=1,
            sort_keys=True,
        )
    )
    append_bench_history(
        "obs",
        meta=meta,
        metrics=registry.as_doc(),
        stages={"obs.traced_run": t_on, "obs.untraced_run": t_off},
    )

    if t_off < MIN_MEASURABLE_SECONDS:
        pytest.skip(
            f"untraced run too fast to grade ({t_off:.2f}s < "
            f"{MIN_MEASURABLE_SECONDS:.0f}s); measured {overhead:+.2%}"
        )
    assert overhead <= MAX_OVERHEAD, (
        f"tracing overhead {overhead:+.2%} exceeds {MAX_OVERHEAD:.0%}"
    )
