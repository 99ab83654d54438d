"""Benchmark: incremental KB-delta update vs full re-prepare + re-run.

A small delta (one movie renamed in one of ``REPRO_BENCH_CLUSTERS``
clusters — well under 5% of the candidate pairs) is applied to a
clustered world.  The *full* path re-prepares the post-delta KBs and
re-runs every unit; the *incremental* path splices the cached prepared
state (``incremental_prepare``) and re-runs only the dirty cluster,
restoring every clean unit's recorded outcome and taking each
isolated-pair forest the base run already fitted.  Both must produce
byte-identical results and use the same forests; at ≥ 12 clusters the
incremental path must be ≥ 3x faster (self-gating, like
``bench_partition``).

Scale knobs (environment):

``REPRO_BENCH_CLUSTERS``  number of clusters/components (default 24)
``REPRO_BENCH_MOVIES``    movies per cluster (default 12)

CI runs this file at 12 x 10 (see the workflow's stream-smoke step),
where the base run fits a forest the update reuses and the ≥ 3x bar
fires.
"""

import json
import os
import time

import pytest

from repro.core import Remp, RempConfig
from repro.datasets import clustered_bundle
from repro.partition import CrowdSpec
from repro.store.serialize import result_to_doc
from repro.stream import DeltaOp, KBDelta, incremental_prepare, StreamRunner

CLUSTERS = int(os.environ.get("REPRO_BENCH_CLUSTERS", "24"))
MOVIES = int(os.environ.get("REPRO_BENCH_MOVIES", "12"))
LABEL_NOISE = 0.5
ERROR_RATE = 0.05
SEED = 0


def _bundle():
    return clustered_bundle(
        num_clusters=CLUSTERS,
        movies_per_cluster=MOVIES,
        seed=SEED,
        label_noise=LABEL_NOISE,
    )


def _delta(bundle) -> KBDelta:
    """Rename one movie of cluster 0 in both KBs (< 5% of the world)."""
    m1, m2 = "x:m0_1", "y:m0_1"
    new_label = "studio000 film renamed001"
    ops = []
    old1, old2 = bundle.kb1.label(m1), bundle.kb2.label(m2)
    if old1 is not None:
        ops.append(DeltaOp("remove_attribute", 1, m1, "rdfs:label", old1))
    if old2 is not None:
        ops.append(DeltaOp("remove_attribute", 2, m2, "rdfs:label", old2))
    ops.append(DeltaOp("add_attribute", 1, m1, "rdfs:label", new_label))
    ops.append(DeltaOp("add_attribute", 2, m2, "rdfs:label", new_label))
    return KBDelta(ops=tuple(ops))


def _crowd(truth):
    return CrowdSpec(truth=truth, error_rate=ERROR_RATE, seed=SEED)


def _full_update(bundle, delta):
    """The naive path: re-prepare the post-delta KBs, re-run everything."""
    kb1, kb2 = delta.apply(bundle.kb1, bundle.kb2)
    state = Remp(RempConfig(), seed=SEED).prepare(kb1, kb2)
    runner = StreamRunner(RempConfig(), seed=SEED, workers=1)
    return runner.run_full(state, _crowd(bundle.gold_matches))


def _incremental_update(base_state, base_records, bundle, delta):
    """The stream path: splice the cached state, re-run dirty units only."""
    prepared = incremental_prepare(base_state, delta, RempConfig())
    runner = StreamRunner(RempConfig(), seed=SEED, workers=1)
    return runner.run_incremental(
        prepared.state,
        _crowd(bundle.gold_matches),
        dirty=prepared.changed,
        reuse=base_records,
    )


@pytest.fixture(scope="module")
def baseline():
    """The pre-delta world, its prepared state and recorded unit outcomes."""
    bundle = _bundle()
    state = Remp(RempConfig(), seed=SEED).prepare(bundle.kb1, bundle.kb2)
    outcome = StreamRunner(RempConfig(), seed=SEED, workers=1).run_full(
        state, _crowd(bundle.gold_matches)
    )
    return bundle, state, outcome.records


def test_stream_full_update(benchmark, baseline):
    bundle, _, _ = baseline
    delta = _delta(bundle)
    outcome = benchmark.pedantic(
        _full_update, args=(bundle, delta), rounds=1, iterations=1
    )
    assert outcome.result.matches


def test_stream_incremental_update(benchmark, baseline):
    bundle, state, records = baseline
    delta = _delta(bundle)
    outcome = benchmark.pedantic(
        _incremental_update, args=(state, records, bundle, delta), rounds=1, iterations=1
    )
    assert outcome.result.matches
    assert outcome.reused_keys


def test_stream_speedup(baseline):
    """Incremental vs full wall clock on a ≤ 5% delta; ≥ 3x at scale."""
    bundle, state, records = baseline
    delta = _delta(bundle)

    start = time.perf_counter()
    full = _full_update(bundle, delta)
    t_full = time.perf_counter() - start
    start = time.perf_counter()
    incremental = _incremental_update(state, records, bundle, delta)
    t_incremental = time.perf_counter() - start

    assert json.dumps(result_to_doc(incremental.result), sort_keys=True) == json.dumps(
        result_to_doc(full.result), sort_keys=True
    )
    assert incremental.reused_keys
    # The update's isolated unit uses exactly the forests a from-scratch
    # update trains, and takes each one the base run already fitted
    # instead of refitting it.  Where the rename changes the isolated
    # training set, both rightly fit a forest the base run does not hold.
    base_forests = records["isolated\x1f0"].forests
    forests = incremental.records["isolated\x1f0"].forests
    assert set(forests) == set(full.records["isolated\x1f0"].forests), (
        "the incremental update trained other forests than the from-scratch one"
    )
    reused_forests = [key for key in forests if key in base_forests]
    assert all(forests[key] is base_forests[key] for key in reused_forests), (
        "the incremental update refit the base run's isolated forest"
    )
    speedup = t_full / t_incremental if t_incremental else float("inf")
    reused = len(incremental.reused_keys)
    total = len(incremental.records)
    print(
        f"\n{CLUSTERS} clusters x {MOVIES} movies, 1-movie rename: "
        f"full {t_full:.2f}s, incremental {t_incremental:.2f}s "
        f"-> {speedup:.2f}x speedup ({reused}/{total} units reused, "
        f"{incremental.questions_new} newly billed questions, "
        f"{len(reused_forests)} of {len(forests)} isolated forests reused)"
    )
    if CLUSTERS >= 12:
        assert speedup >= 3.0, (
            f"expected >= 3x at {CLUSTERS} clusters, measured {speedup:.2f}x"
        )
    else:
        pytest.skip(
            f"speedup assertion needs >= 12 clusters (have {CLUSTERS}); "
            f"measured {speedup:.2f}x"
        )
