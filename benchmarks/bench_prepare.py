"""Benchmark: vectorized prepare kernels + incremental loop propagation.

Times the product path against the paper-faithful references of
:mod:`repro.accel.reference` (``reference_kernels()`` for the kernels,
``RebuildRemp`` for the full-rebuild loop) over increasing scales of
two workloads:

* **blocking stress** — a clustered world whose label noise collapses
  many labels, producing the large ambiguous dominance blocks the packed
  kernels exist for (at the largest scale the ≥ 4x acceptance bar is
  asserted);
* **loop propagation** — the ``bench_partition`` clustered bundle, timing
  the cumulative ``LoopState.propagate`` wall-clock across the whole
  human–machine loop (≥ 3x bar for the incremental propagator).

Both assertions self-gate the same way ``bench_partition`` gates on
cores: when the fallback (reference) measurement is too small to time
reliably (tiny CI smoke scales), the bar is skipped and only the
harness correctness — byte-identical results between product and
reference — is checked.

Scale knobs (environment):

``REPRO_BENCH_PREPARE_SCALE``   largest blocking-stress scale (default 400)
``REPRO_BENCH_CLUSTERS``        clusters for the loop bundle (default 24)
``REPRO_BENCH_MOVIES``          movies per cluster (default 16)

Every run appends machine-readable per-stage timings to
``BENCH_prepare.json`` (the perf trajectory artifact CI uploads), so
future changes can compare stage-level profiles across commits.
"""

import json
import os
import time
from contextlib import nullcontext
from pathlib import Path

import pytest

from repro.accel.reference import RebuildRemp, reference_kernels
from repro.core import Remp
from repro.crowd import CrowdPlatform
from repro.datasets import clustered_bundle
from repro.obs import RunScope
from repro.store.serialize import prepared_state_to_doc
from repro.text import normalize

#: Critics per cluster at the top blocking-stress scale.
PREPARE_SCALE = int(os.environ.get("REPRO_BENCH_PREPARE_SCALE", "400"))
CLUSTERS = int(os.environ.get("REPRO_BENCH_CLUSTERS", "24"))
MOVIES = int(os.environ.get("REPRO_BENCH_MOVIES", "16"))
ERROR_RATE = 0.05

#: Fallback wall-clock below which a speedup ratio is noise, not signal.
MIN_MEASURABLE_SECONDS = 2.0

TRAJECTORY_PATH = Path("BENCH_prepare.json")


def _blocking_bundle(scale: int):
    """High-ambiguity world: collapsed labels -> large dominance blocks."""
    return clustered_bundle(
        num_clusters=4,
        movies_per_cluster=4,
        critics_per_cluster=scale,
        seed=0,
        label_noise=0.9,
    )


def _timed_prepare(bundle, accel: bool):
    """(wall seconds, prepared state, stage timings) for one cold prepare."""
    normalize.normalize_label.cache_clear()
    scope = RunScope(trace=False)
    with scope.activate(), nullcontext() if accel else reference_kernels():
        start = time.perf_counter()
        state = Remp().prepare(bundle.kb1, bundle.kb2)
        elapsed = time.perf_counter() - start
    return elapsed, state, scope.export()["timings"]


def _timed_loop(bundle, accel: bool):
    """Cumulative propagate seconds + loop doc for one full loop phase."""
    normalize.normalize_label.cache_clear()
    scope = RunScope(trace=False)
    with scope.activate(), nullcontext() if accel else reference_kernels():
        remp = Remp() if accel else RebuildRemp()
        state = remp.prepare(bundle.kb1, bundle.kb2)
        platform = CrowdPlatform.with_simulated_workers(
            bundle.gold_matches, error_rate=ERROR_RATE, seed=0
        )
        loop_state, history, questions = remp.run_loop_phase(state, platform)
    propagate_seconds = scope.timings.snapshot().get("loop.propagate", (0.0, 0))[0]
    doc = {
        "labeled": sorted(map(list, loop_state.labeled_matches)),
        "inferred": sorted(map(list, loop_state.inferred_matches)),
        "non_matches": sorted(map(list, loop_state.resolved_non_matches)),
        "questions": questions,
        "batches": [record.questions for record in history],
    }
    return propagate_seconds, doc, scope.export()["timings"]


def _append_trajectory(entry: dict) -> None:
    """Append one record to the machine-readable perf trajectory."""
    trajectory = []
    if TRAJECTORY_PATH.exists():
        try:
            trajectory = json.loads(TRAJECTORY_PATH.read_text())
        except json.JSONDecodeError:
            trajectory = []
    trajectory.append(entry)
    TRAJECTORY_PATH.write_text(json.dumps(trajectory, indent=1, sort_keys=True))


def _scales() -> list[int]:
    """Geometric ramp up to the configured top scale."""
    ramp = [PREPARE_SCALE // 4, PREPARE_SCALE // 2, PREPARE_SCALE]
    return sorted({max(1, scale) for scale in ramp})


def test_prepare_speedup():
    """End-to-end prepare, accel vs fallback, byte-identical and >= 4x."""
    rows = []
    for scale in _scales():
        bundle = _blocking_bundle(scale)
        t_accel, state_accel, stages_accel = _timed_prepare(bundle, accel=True)
        t_fallback, state_fallback, stages_fallback = _timed_prepare(
            bundle, accel=False
        )
        assert prepared_state_to_doc(state_accel) == prepared_state_to_doc(
            state_fallback
        ), f"accel prepare drift at scale {scale}"
        speedup = t_fallback / t_accel if t_accel else float("inf")
        rows.append((scale, t_accel, t_fallback, speedup))
        print(
            f"\nprepare scale={scale}: accel {t_accel:.2f}s, "
            f"fallback {t_fallback:.2f}s -> {speedup:.2f}x "
            f"({len(state_accel.retained)} retained)"
        )
        _append_trajectory(
            {
                "bench": "prepare",
                "scale": scale,
                "accel_seconds": round(t_accel, 4),
                "fallback_seconds": round(t_fallback, 4),
                "speedup": round(speedup, 3),
                "stages_accel": stages_accel,
                "stages_fallback": stages_fallback,
            }
        )
    top_scale, _, top_fallback, top_speedup = rows[-1]
    if top_fallback < MIN_MEASURABLE_SECONDS:
        pytest.skip(
            f"fallback prepare too fast to grade at scale {top_scale} "
            f"({top_fallback:.2f}s < {MIN_MEASURABLE_SECONDS:.0f}s); "
            f"measured {top_speedup:.2f}x"
        )
    assert top_speedup >= 4.0, (
        f"expected >= 4x prepare speedup at scale {top_scale}, "
        f"measured {top_speedup:.2f}x"
    )


def test_loop_propagate_speedup():
    """Cumulative LoopState.propagate, accel vs fallback, >= 3x."""
    bundle = clustered_bundle(
        num_clusters=CLUSTERS,
        movies_per_cluster=MOVIES,
        seed=0,
        label_noise=0.5,
    )
    t_accel, doc_accel, stages_accel = _timed_loop(bundle, accel=True)
    t_fallback, doc_fallback, stages_fallback = _timed_loop(bundle, accel=False)
    assert doc_accel == doc_fallback, "incremental propagation drift"
    speedup = t_fallback / t_accel if t_accel else float("inf")
    print(
        f"\npropagate ({CLUSTERS}x{MOVIES}): accel {t_accel:.2f}s, "
        f"fallback {t_fallback:.2f}s -> {speedup:.2f}x "
        f"over {len(doc_accel['batches'])} loops"
    )
    _append_trajectory(
        {
            "bench": "loop_propagate",
            "clusters": CLUSTERS,
            "movies": MOVIES,
            "accel_seconds": round(t_accel, 4),
            "fallback_seconds": round(t_fallback, 4),
            "speedup": round(speedup, 3),
            "stages_accel": stages_accel,
            "stages_fallback": stages_fallback,
        }
    )
    if t_fallback < MIN_MEASURABLE_SECONDS:
        pytest.skip(
            f"fallback propagate too fast to grade ({t_fallback:.2f}s); "
            f"measured {speedup:.2f}x"
        )
    assert speedup >= 3.0, (
        f"expected >= 3x propagate speedup, measured {speedup:.2f}x"
    )


def test_prepare_accel_benchmark(benchmark):
    bundle = _blocking_bundle(_scales()[0])
    result = benchmark.pedantic(
        _timed_prepare, args=(bundle, True), rounds=1, iterations=1
    )
    assert result[1].retained


def test_prepare_fallback_benchmark(benchmark):
    bundle = _blocking_bundle(_scales()[0])
    result = benchmark.pedantic(
        _timed_prepare, args=(bundle, False), rounds=1, iterations=1
    )
    assert result[1].retained
