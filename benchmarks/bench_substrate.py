"""Benchmark: results under the shared prepared-state cache, in every mode.

Each service's cache (:mod:`repro.substrate`) holds one arena per
``(KB pair, config)`` key: the key's prepared state and its
literal-interning scorers, shared by every session on the key.  Sharing
must never change a result, so this bench asserts byte-identity across
two concurrent sessions in one service, a session in a service of its
own, a session on the reference kernels and full-rebuild loop
(:mod:`repro.accel.reference`), and a ``workers``-wide partitioned run;
the partitioned run's wall clock is recorded as a trajectory sample.

Scale knobs (environment):

``REPRO_BENCH_SUBSTRATE_DATASET``  registry dataset (default dbpedia_yago)
``REPRO_BENCH_SUBSTRATE_SCALE``    dataset scale (default 2.0)
``REPRO_BENCH_WORKERS``            pool size for the partitioned case (default 4)

Every sample lands in the unified ``BENCH_history.jsonl`` trajectory
(:func:`repro.obs.append_bench_history`) that ``repro bench compare``
diffs across CI runs.
"""

import os
import time

import repro.service.service
from repro.accel.reference import RebuildRemp, reference_kernels
from repro.obs import append_bench_history
from repro.service import MatchingService
from repro.store import RunStore

DATASET = os.environ.get("REPRO_BENCH_SUBSTRATE_DATASET", "dbpedia_yago")
SCALE = float(os.environ.get("REPRO_BENCH_SUBSTRATE_SCALE", "2.0"))
WORKERS = int(os.environ.get("REPRO_BENCH_WORKERS", "4"))


def test_concurrent_sessions_identical_in_every_mode(tmp_path, monkeypatch):
    """Two shared sessions == isolated session == reference session."""
    with MatchingService(RunStore(tmp_path / "shared.db")) as service:
        run_ids = [service.submit(DATASET, scale=SCALE) for _ in range(2)]
        shared_results = [service.result(run_id) for run_id in run_ids]
    with MatchingService(RunStore(tmp_path / "isolated.db")) as service:
        isolated = service.result(
            service.submit(DATASET, scale=SCALE, background=False)
        )
    monkeypatch.setattr(repro.service.service, "Remp", RebuildRemp)
    with reference_kernels(), MatchingService(RunStore(tmp_path / "fallback.db")) as service:
        fallback = service.result(
            service.submit(DATASET, scale=SCALE, background=False)
        )
    for result in (*shared_results, fallback):
        assert result.matches == isolated.matches
        assert result.questions_asked == isolated.questions_asked
        assert result.history == isolated.history


def test_partitioned_pool_matches_monolithic(tmp_path):
    """A ``workers``-wide run matches the monolithic run."""
    with MatchingService(RunStore(tmp_path / "mono.db")) as service:
        mono = service.result(
            service.submit("evolving", scale=1.0, background=False)
        )
    with MatchingService(RunStore(tmp_path / "pool.db")) as service:
        start = time.perf_counter()
        run_id = service.submit(
            "evolving", scale=1.0, workers=WORKERS, background=False
        )
        pooled = service.result(run_id)
        t_pool = time.perf_counter() - start
    assert pooled.matches == mono.matches
    assert pooled.questions_asked == mono.questions_asked
    print(f"\n{WORKERS}-worker partitioned run: {t_pool:.2f}s")
    append_bench_history(
        "substrate",
        meta={"bench": "substrate", "workers": WORKERS},
        stages={"substrate.pool": t_pool},
    )
