"""Worker-count invariance and crash recovery of partitioned runs.

The contract of :mod:`repro.partition`: the merged result is a pure
function of (prepared state, config, seed, strategy, partition
parameters) — never of the pool size or scheduling order.  These tests
pin that property across seeds and all three selection strategies, and
verify that a killed partitioned run resumes from its per-shard
checkpoints to the byte-identical result without re-billing questions.
"""

import pytest

from repro.core import Remp, RempConfig
from repro.datasets import clustered_bundle
from repro.partition import CrowdSpec, ParallelRunner
from repro.store import RunStore

#: Small multi-component dataset: 5 clusters -> 5 graph shards + critics.
_CLUSTERS = 5


@pytest.fixture(scope="module")
def worlds():
    """(bundle, prepared state) per generation seed, computed once."""
    cache = {}
    for seed in (0, 1, 2):
        bundle = clustered_bundle(
            num_clusters=_CLUSTERS,
            movies_per_cluster=3,
            seed=seed,
            critics_per_cluster=1,
        )
        cache[seed] = (bundle, Remp().prepare(bundle.kb1, bundle.kb2))
    return cache


def _run(state, crowd, *, workers, strategy="remp", config=None, **kwargs):
    runner = ParallelRunner(
        config, seed=crowd.seed, workers=workers, strategy=strategy, **kwargs
    )
    return runner.run(state, crowd)


def _assert_identical(first, second):
    assert first.matches == second.matches
    assert first.labeled_matches == second.labeled_matches
    assert first.inferred_matches == second.inferred_matches
    assert first.isolated_matches == second.isolated_matches
    assert first.non_matches == second.non_matches
    assert first.questions_asked == second.questions_asked
    assert first.num_loops == second.num_loops
    assert [r.questions for r in first.history] == [
        r.questions for r in second.history
    ]


class TestWorkerCountInvariance:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("strategy", ["remp", "maxinf", "maxpr"])
    def test_pool_equals_sequential(self, worlds, seed, strategy):
        bundle, state = worlds[seed]
        crowd = CrowdSpec(truth=bundle.gold_matches, error_rate=0.08, seed=seed)
        sequential = _run(state, crowd, workers=1, strategy=strategy)
        pooled = _run(state, crowd, workers=3, strategy=strategy)
        _assert_identical(sequential, pooled)

    def test_invariant_under_budget(self, worlds):
        bundle, state = worlds[0]
        crowd = CrowdSpec(truth=bundle.gold_matches, error_rate=0.08, seed=0)
        config = RempConfig(budget=9)
        sequential = _run(state, crowd, workers=1, config=config)
        pooled = _run(state, crowd, workers=2, config=config)
        _assert_identical(sequential, pooled)

    def test_rerun_is_deterministic(self, worlds):
        bundle, state = worlds[1]
        crowd = CrowdSpec(truth=bundle.gold_matches, error_rate=0.08, seed=1)
        _assert_identical(
            _run(state, crowd, workers=1), _run(state, crowd, workers=1)
        )


class _Killed(Exception):
    pass


class TestKillAndResume:
    @pytest.fixture(scope="class")
    def setup(self, worlds):
        bundle, state = worlds[0]
        crowd = CrowdSpec(truth=bundle.gold_matches, error_rate=0.08, seed=0)
        baseline = _run(state, crowd, workers=1)
        return bundle, state, crowd, baseline

    def _kill_after(self, state, crowd, store, run_id, events: int):
        """Run partitioned until `events` checkpoints fired, then die."""
        seen = []

        def sink(event):
            if event.kind == "checkpointed":
                seen.append(event)
                if len(seen) == events:
                    raise _Killed

        with pytest.raises(_Killed):
            ParallelRunner(
                workers=1, store=store, run_id=run_id, on_event=sink
            ).run(state, crowd)

    def test_resume_conserves_result_and_billing(self, tmp_path, setup):
        bundle, state, crowd, baseline = setup
        store = RunStore(tmp_path / "kill.db")
        run_id = store.create_run("clustered", 0, 1.0, None, workers=1)
        self._kill_after(state, crowd, store, run_id, events=3)
        # Some shards finished, at most one holds a mid-loop checkpoint.
        units, journals = store.load_shard_records(run_id)
        assert units or journals, "the kill left no shard state behind"
        planner = ParallelRunner()
        keys = planner._shard_keys(planner.plan(state))

        events = []
        resumed = ParallelRunner(
            workers=1, store=store, run_id=run_id, on_event=events.append
        ).run(state, crowd)
        _assert_identical(baseline, resumed)
        # Finished shards were restored, by unit key, not re-run.
        done_before = {shard_id for shard_id, key in keys.items() if key in units}
        restored = {e.shard_id for e in events if e.kind == "restored"}
        assert done_before <= restored
        store.close()

    def test_mid_loop_checkpoint_resumes_without_rebilling(self, tmp_path, setup):
        bundle, state, crowd, baseline = setup
        store = RunStore(tmp_path / "midloop.db")
        run_id = store.create_run("clustered", 0, 1.0, None, workers=1)
        # Kill on the very first checkpoint: shard 0 is mid-loop.
        self._kill_after(state, crowd, store, run_id, events=1)
        _, journals = store.load_shard_records(run_id)
        (checkpoint,) = journals.values()
        replayed = {tuple(e["question"]) for e in checkpoint.answer_log}
        assert replayed, "checkpoint recorded no crowd answers"

        resumed = ParallelRunner(workers=1, store=store, run_id=run_id).run(
            state, crowd
        )
        _assert_identical(baseline, resumed)
        store.close()

    def test_pool_resume_after_kill(self, tmp_path, setup):
        bundle, state, crowd, baseline = setup
        store = RunStore(tmp_path / "pool.db")
        run_id = store.create_run("clustered", 0, 1.0, None, workers=2)
        self._kill_after(state, crowd, store, run_id, events=2)
        resumed = ParallelRunner(workers=2, store=store, run_id=run_id).run(
            state, crowd
        )
        _assert_identical(baseline, resumed)
        store.close()
