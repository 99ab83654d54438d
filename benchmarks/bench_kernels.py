"""Benchmark: the PR-10 kernel floor — ER-graph build, exact marginals,
candidate scoring.

Times the three kernels against their pure-Python references (the
product call under :func:`repro.accel.reference.reference_kernels`) on
workloads shaped to stress exactly what each kernel indexes away:

* **er_graph** — a hub world (each hub publishes many papers) where the
  reference probes the full ``|N1| x |N2|`` value-set product per hub
  vertex while the kernel walks partner lists (>= 3x bar);
* **marginals** — mixed matching groups at ``max_exact_pairs``-sized
  scale (contested values plus singleton pairs, the shape
  ``_reduce_group`` emits), where the permanent DP collapses the
  reference's exponential leaf walk (>= 4x bar);
* **candidates** — a blocking-stress world whose labels mix identity
  tokens with a small shared vocabulary: the inverted-index join
  generates many near-miss hits but few surviving pairs, so the
  reference pays per-hit dict work the vectorized join folds into one
  ``np.unique`` (>= 2x bar on the ``candidates.score`` stage).

All three assert byte-identical results between kernel and reference
even when the speedup bars self-gate (fallback too fast to grade at CI
smoke scales, same policy as ``bench_prepare``).

Scale knobs (environment):

``REPRO_BENCH_KERNEL_HUBS``      hubs in the er_graph world (default 16)
``REPRO_BENCH_KERNEL_PAPERS``    papers per hub at top scale (default 1500)
``REPRO_BENCH_KERNEL_GROUPS``    marginal groups at top scale (default 900)
``REPRO_BENCH_KERNEL_ENTITIES``  entities per side at top scale (default 3000)

Every run appends machine-readable per-stage timings to
``BENCH_kernels.json`` (the perf trajectory artifact CI uploads).
"""

import json
import os
import random
import time
from contextlib import nullcontext
from pathlib import Path

import pytest

from repro.accel.reference import reference_kernels
from repro.core.candidates import generate_candidates
from repro.core.er_graph import build_er_graph
from repro.core.propagation import _marginals_exact
from repro.kb.model import KnowledgeBase
from repro.obs import RunScope
from repro.text import normalize

HUBS = int(os.environ.get("REPRO_BENCH_KERNEL_HUBS", "16"))
PAPERS = int(os.environ.get("REPRO_BENCH_KERNEL_PAPERS", "1500"))
GROUPS = int(os.environ.get("REPRO_BENCH_KERNEL_GROUPS", "900"))
ENTITIES = int(os.environ.get("REPRO_BENCH_KERNEL_ENTITIES", "3000"))

#: Fallback wall-clock below which a speedup ratio is noise, not signal.
MIN_MEASURABLE_SECONDS = 2.0

TRAJECTORY_PATH = Path("BENCH_kernels.json")


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


def _ramp(top: int) -> list[int]:
    """Geometric ramp up to the configured top scale."""
    return sorted({max(1, scale) for scale in (top // 4, top // 2, top)})


def _grade(bench: str, rows: list[tuple], bar: float) -> None:
    """Apply the self-gating speedup bar to the top-scale measurement."""
    top_scale, _, top_fallback, top_speedup = rows[-1]
    if top_fallback < MIN_MEASURABLE_SECONDS:
        pytest.skip(
            f"fallback {bench} too fast to grade at scale {top_scale} "
            f"({top_fallback:.2f}s < {MIN_MEASURABLE_SECONDS:.0f}s); "
            f"measured {top_speedup:.2f}x"
        )
    assert top_speedup >= bar, (
        f"expected >= {bar:.0f}x {bench} speedup at scale {top_scale}, "
        f"measured {top_speedup:.2f}x"
    )


# ----------------------------------------------------------------------
# ER-graph build
# ----------------------------------------------------------------------
def _hub_world(hubs: int, papers: int):
    """Aligned hub KBs: each hub publishes ``papers`` papers.

    Every hub vertex carries a ``papers x papers`` value-set product —
    the quadratic cell the reference probes exhaustively and the
    adjacency-indexed kernel never materializes.
    """
    kb1, kb2 = KnowledgeBase("hub1"), KnowledgeBase("hub2")
    vertices = set()
    for h in range(hubs):
        kb1.add_entity(f"ah{h}")
        kb2.add_entity(f"bh{h}")
        vertices.add((f"ah{h}", f"bh{h}"))
        for p in range(papers):
            e1, e2 = f"ap{h}_{p}", f"bp{h}_{p}"
            kb1.add_entity(e1)
            kb2.add_entity(e2)
            kb1.add_relationship_triple(f"ah{h}", "published", e1)
            kb2.add_relationship_triple(f"bh{h}", "published", e2)
            vertices.add((e1, e2))
    return kb1, kb2, vertices


def _timed_er_graph(kb1, kb2, vertices, accel: bool):
    scope = RunScope(trace=False)
    with scope.activate(), nullcontext() if accel else reference_kernels():
        start = time.perf_counter()
        graph = build_er_graph(kb1, kb2, vertices)
        elapsed = time.perf_counter() - start
    return elapsed, graph, scope.export()["timings"]


def test_er_graph_build_speedup():
    """Adjacency-indexed ER-graph build, byte-identical and >= 3x."""
    rows = []
    for papers in _ramp(PAPERS):
        kb1, kb2, vertices = _hub_world(HUBS, papers)
        t_accel, g_accel, stages_accel = _timed_er_graph(kb1, kb2, vertices, True)
        t_fallback, g_fallback, stages_fallback = _timed_er_graph(
            kb1, kb2, vertices, False
        )
        assert g_accel.groups == g_fallback.groups, (
            f"er_graph drift at {papers} papers"
        )
        assert list(g_accel.groups) == list(g_fallback.groups)
        assert all(
            list(g_accel.groups[v]) == list(g_fallback.groups[v])
            for v in g_fallback.groups
        )
        speedup = t_fallback / t_accel if t_accel else float("inf")
        rows.append((papers, t_accel, t_fallback, speedup))
        print(
            f"\ner_graph hubs={HUBS} papers={papers}: accel {t_accel:.2f}s, "
            f"fallback {t_fallback:.2f}s -> {speedup:.2f}x "
            f"({g_accel.num_edges} edges)"
        )
        _append_trajectory(
            {
                "bench": "kernel_er_graph",
                "hubs": HUBS,
                "papers": papers,
                "accel_seconds": round(t_accel, 4),
                "fallback_seconds": round(t_fallback, 4),
                "speedup": round(speedup, 3),
                "stages_accel": stages_accel,
                "stages_fallback": stages_fallback,
            }
        )
    _grade("er_graph", rows, 3.0)


# ----------------------------------------------------------------------
# Exact marginals
# ----------------------------------------------------------------------
def _mixed_groups(count: int):
    """``max_exact_pairs``-sized groups in the shape ``_reduce_group`` emits.

    Two contested right values holding two pairs each, plus eight
    singleton pairs — twelve pairs per group, priors drawn from a small
    tie-heavy palette.
    """
    rng = random.Random(0x5EED)
    palette = (0.3, 0.5, 0.5, 0.7, 0.9)
    groups = []
    for g in range(count):
        pairs = [(f"g{g}l{i}", f"g{g}r{i // 2}") for i in range(4)]
        pairs += [(f"g{g}l{4 + i}", f"g{g}s{i}") for i in range(8)]
        priors = {pair: rng.choice(palette) for pair in pairs}
        groups.append((pairs, priors, rng.choice((0.6, 1.0, 1.8))))
    return groups


def _timed_marginals(groups, accel: bool):
    scope = RunScope(trace=False)
    with scope.activate(), nullcontext() if accel else reference_kernels():
        start = time.perf_counter()
        results = [
            _marginals_exact(pairs, priors, gamma) for pairs, priors, gamma in groups
        ]
        elapsed = time.perf_counter() - start
    return elapsed, results, scope.export()["timings"]


def test_exact_marginals_speedup():
    """Permanent-DP exact marginals, bitwise-identical and >= 4x."""
    rows = []
    for count in _ramp(GROUPS):
        groups = _mixed_groups(count)
        t_accel, r_accel, stages_accel = _timed_marginals(groups, True)
        t_fallback, r_fallback, stages_fallback = _timed_marginals(groups, False)
        assert all(
            accel_map[pair].hex() == fallback_map[pair].hex()
            for accel_map, fallback_map in zip(r_accel, r_fallback)
            for pair in fallback_map
        ), f"marginal drift at {count} groups"
        assert [sorted(m) for m in r_accel] == [sorted(m) for m in r_fallback]
        speedup = t_fallback / t_accel if t_accel else float("inf")
        rows.append((count, t_accel, t_fallback, speedup))
        print(
            f"\nmarginals groups={count} (n=12): accel {t_accel:.2f}s, "
            f"fallback {t_fallback:.2f}s -> {speedup:.2f}x"
        )
        _append_trajectory(
            {
                "bench": "kernel_marginals",
                "groups": count,
                "pairs_per_group": 12,
                "accel_seconds": round(t_accel, 4),
                "fallback_seconds": round(t_fallback, 4),
                "speedup": round(speedup, 3),
                "stages_accel": stages_accel,
                "stages_fallback": stages_fallback,
            }
        )
    _grade("marginals", rows, 4.0)


# ----------------------------------------------------------------------
# Candidate scoring
# ----------------------------------------------------------------------
def _stress_labels(entities: int, seed: int = 0):
    """Blocking-stress KBs: identity tokens plus a small shared vocabulary.

    Cross pairs share only common tokens (near-misses the threshold
    rejects); aligned pairs share their identity tokens and survive.
    The reference pays one dict operation per posting hit; the kernel
    folds the whole hit stream into array work.
    """
    rng = random.Random(seed)
    common = [f"common{c}" for c in range(12)]
    kb1, kb2 = KnowledgeBase("stress1"), KnowledgeBase("stress2")
    for i in range(entities):
        ident = [f"id{i}w{t}" for t in range(6)]
        kb1.add_entity(f"a{i}", " ".join(ident + rng.sample(common, 5)))
        kb2.add_entity(f"b{i}", " ".join(ident + rng.sample(common, 5)))
    return kb1, kb2


def _timed_candidates(kb1, kb2, accel: bool):
    """(candidates.score stage seconds, result, stage timings)."""
    normalize.normalize_label.cache_clear()
    scope = RunScope(trace=False)
    with scope.activate(), nullcontext() if accel else reference_kernels():
        result = generate_candidates(kb1, kb2)
    seconds = scope.timings.snapshot()["candidates.score"][0]
    return seconds, result, scope.export()["timings"]


def test_candidate_scoring_speedup():
    """Vectorized candidates.score stage, byte-identical and >= 2x."""
    rows = []
    for entities in _ramp(ENTITIES):
        kb1, kb2 = _stress_labels(entities)
        t_accel, c_accel, stages_accel = _timed_candidates(kb1, kb2, True)
        t_fallback, c_fallback, stages_fallback = _timed_candidates(kb1, kb2, False)
        assert c_accel.pairs == c_fallback.pairs, (
            f"candidate pair drift at {entities} entities"
        )
        assert c_accel.initial_matches == c_fallback.initial_matches
        assert c_accel.priors.keys() == c_fallback.priors.keys()
        assert all(
            c_accel.priors[pair].hex() == c_fallback.priors[pair].hex()
            for pair in c_fallback.priors
        ), f"prior drift at {entities} entities"
        speedup = t_fallback / t_accel if t_accel else float("inf")
        rows.append((entities, t_accel, t_fallback, speedup))
        print(
            f"\ncandidates entities={entities}: score accel {t_accel:.2f}s, "
            f"fallback {t_fallback:.2f}s -> {speedup:.2f}x "
            f"({len(c_accel.pairs)} pairs)"
        )
        _append_trajectory(
            {
                "bench": "kernel_candidates",
                "entities": entities,
                "accel_seconds": round(t_accel, 4),
                "fallback_seconds": round(t_fallback, 4),
                "speedup": round(speedup, 3),
                "stages_accel": stages_accel,
                "stages_fallback": stages_fallback,
            }
        )
    _grade("candidates.score", rows, 2.0)


# ----------------------------------------------------------------------
# pytest-benchmark smokes (tiny scale, wired into CI's bench smoke)
# ----------------------------------------------------------------------
def test_er_graph_accel_benchmark(benchmark):
    kb1, kb2, vertices = _hub_world(4, max(4, PAPERS // 16))
    result = benchmark.pedantic(
        _timed_er_graph, args=(kb1, kb2, vertices, True), rounds=1, iterations=1
    )
    assert result[1].num_edges


def test_marginals_accel_benchmark(benchmark):
    groups = _mixed_groups(max(2, GROUPS // 16))
    result = benchmark.pedantic(
        _timed_marginals, args=(groups, True), rounds=1, iterations=1
    )
    assert result[1]
