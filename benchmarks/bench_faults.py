"""Benchmark: the fault plane's cost — and the cost of surviving faults.

Two acceptance bars, both self-gated the way ``bench_partition`` gates:

* **overhead** — a partitioned run with an *armed but never-matching*
  fault plan (every ``faults.check`` probe consults the plan, no rule
  fires) must stay within 3% of the same run with no plan at all.  This
  pins the price of keeping the fault plane compiled into every
  execution path instead of behind a build flag.
* **recovery** — a run whose deepest-checkpointing shard's worker is
  SIGKILLed mid-shard (dead-worker reaping → requeue from checkpoint →
  pool replenishment) must finish within 2x the fault-free wall clock.

Byte-identity is asserted in every mode, always — the armed-plan run,
the killed-worker run and the fault-free baseline produce identical
result documents and identical billed ``questions_asked`` — so the
smoke-scale CI run checks correctness even when the timing bars gate
themselves off.

Scale knobs (environment):

``REPRO_BENCH_FAULT_CLUSTERS``  components in the world (default 24)
``REPRO_BENCH_FAULT_MOVIES``    movies per cluster (default 24)
``REPRO_BENCH_WORKERS``         pool size (default 2)
``REPRO_BENCH_FAULT_ROUNDS``    timing repetitions, best-of (default 3)
"""

import json
import os
import time

import pytest

from repro.core import Remp
from repro.datasets import clustered_bundle
from repro.faults import ENV_VAR
from repro.partition import CrowdSpec, ParallelRunner
from repro.store.serialize import result_to_doc

CLUSTERS = int(os.environ.get("REPRO_BENCH_FAULT_CLUSTERS", "24"))
MOVIES = int(os.environ.get("REPRO_BENCH_FAULT_MOVIES", "24"))
WORKERS = int(os.environ.get("REPRO_BENCH_WORKERS", "2"))
ROUNDS = int(os.environ.get("REPRO_BENCH_FAULT_ROUNDS", "3"))
ERROR_RATE = 0.05

#: Fault-free wall-clock below which a timing ratio is noise, not signal.
MIN_MEASURABLE_SECONDS = 1.0

OVERHEAD_BAR = 1.03
RECOVERY_BAR = 2.0

#: Armed but inert: matches the probe *site* on every mid-shard check,
#: so the plan is consulted at full frequency, but the ``where`` filter
#: can never pass (shard ids are non-negative).
INERT_PLAN = json.dumps(
    [{"site": "*", "action": "error", "times": None, "where": {"shard_id": -1}}]
)


def _world():
    bundle = clustered_bundle(
        num_clusters=CLUSTERS, movies_per_cluster=MOVIES, seed=0
    )
    state = Remp().prepare(bundle.kb1, bundle.kb2)
    crowd = CrowdSpec(truth=bundle.gold_matches, error_rate=ERROR_RATE, seed=0)
    return state, crowd


def _run(state, crowd, events=None):
    runner = ParallelRunner(
        workers=WORKERS,
        target_shards=CLUSTERS,
        on_event=events.append if events is not None else None,
    )
    return runner.run(state, crowd)


def _timed(fn, rounds=ROUNDS):
    """(best-of-``rounds`` seconds, last result) — min is the standard
    noise filter for wall-clock ratios at small scales."""
    best, result = float("inf"), None
    for _ in range(rounds):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def _doc(result) -> str:
    return json.dumps(result_to_doc(result), sort_keys=True)


def _with_env_plan(plan_json, fn):
    previous = os.environ.get(ENV_VAR)
    os.environ[ENV_VAR] = plan_json
    try:
        return fn()
    finally:
        if previous is None:
            del os.environ[ENV_VAR]
        else:
            os.environ[ENV_VAR] = previous


def test_fault_plane_overhead():
    """Armed-but-inert plan vs no plan: ≤ 3% overhead, identical bytes."""
    state, crowd = _world()
    t_off, baseline = _timed(lambda: _run(state, crowd))
    t_on, armed = _timed(
        lambda: _with_env_plan(INERT_PLAN, lambda: _run(state, crowd))
    )

    assert _doc(armed) == _doc(baseline)
    assert armed.questions_asked == baseline.questions_asked

    ratio = t_on / t_off if t_off else float("inf")
    print(
        f"\n{CLUSTERS} components x {MOVIES} movies, {WORKERS} workers: "
        f"fault plane off {t_off:.2f}s, armed-inert {t_on:.2f}s "
        f"-> {ratio:.3f}x overhead"
    )
    if t_off >= MIN_MEASURABLE_SECONDS:
        assert ratio <= OVERHEAD_BAR, (
            f"expected <= {OVERHEAD_BAR}x with an inert plan, "
            f"measured {ratio:.3f}x"
        )
    else:
        pytest.skip(
            f"fault-free run took {t_off:.3f}s (< {MIN_MEASURABLE_SECONDS}s); "
            f"overhead bar needs a larger scale (measured {ratio:.3f}x)"
        )


def test_killed_worker_recovery_cost():
    """SIGKILL the deepest shard's worker mid-shard: byte-identical
    result via reaping and requeue, within 2x the fault-free wall clock."""
    state, crowd = _world()
    events = []
    t_clean, baseline = _timed(lambda: _run(state, crowd, events))

    loops = {}
    for event in events:
        if event.kind == "checkpointed":
            loops[event.shard_id] = max(event.loops, loops.get(event.shard_id, 0))
    assert loops, "no shard checkpointed; nothing to kill"
    victim = max(loops, key=lambda shard_id: (loops[shard_id], -shard_id))

    kill_plan = json.dumps(
        [
            {
                "site": "worker.mid_shard",
                "action": "kill",
                "where": {"shard_id": victim, "attempt": 0},
            }
        ]
    )
    # One round only: each timed repetition must inject exactly one kill,
    # and the env plan's counters reset per distinct raw value, not per run.
    t_killed, recovered = _timed(
        lambda: _with_env_plan(kill_plan, lambda: _run(state, crowd)), rounds=1
    )

    assert _doc(recovered) == _doc(baseline)
    assert recovered.questions_asked == baseline.questions_asked

    slowdown = t_killed / t_clean if t_clean else float("inf")
    print(
        f"\nshard {victim} worker killed mid-shard: fault-free {t_clean:.2f}s, "
        f"recovered {t_killed:.2f}s -> {slowdown:.2f}x"
    )
    if t_clean >= MIN_MEASURABLE_SECONDS:
        assert slowdown <= RECOVERY_BAR, (
            f"expected <= {RECOVERY_BAR}x after a mid-shard kill, "
            f"measured {slowdown:.2f}x"
        )
    else:
        pytest.skip(
            f"fault-free run took {t_clean:.3f}s (< {MIN_MEASURABLE_SECONDS}s); "
            f"recovery bar needs a larger scale (measured {slowdown:.2f}x)"
        )
