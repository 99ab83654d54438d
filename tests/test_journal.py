"""The checkpoint journal: every loop appends its delta, and folds resume.

:meth:`LoopDriver.checkpoint` hands out what one loop changed, the store
appends it as one ``checkpoint_journal`` row, and
:func:`fold_checkpoints` turns the rows back into one resumable
checkpoint.  The oracle here: at every loop, restoring the fold of the
deltas so far gives the live run's loop state and answer log.
"""

import json
import sqlite3

import pytest

from repro import faults
from repro.cli import main
from repro.core import Remp, RempConfig
from repro.core.hybrid import HybridRemp
from repro.core.pipeline import LoopDriver, fold_checkpoints, parse_state_doc
from repro.crowd import CrowdPlatform
from repro.partition import CrowdSpec, ParallelRunner
from repro.service import MatchingService
from repro.store import RunStore
from repro.store.serialize import checkpoint_to_doc, result_to_doc

ERROR_RATE = 0.1


@pytest.fixture(scope="module")
def bundle(bundle_iimb_02):
    return bundle_iimb_02


@pytest.fixture(scope="module")
def state(prepared_iimb_02):
    return prepared_iimb_02


def _platform(bundle, seed=1):
    return CrowdPlatform.with_simulated_workers(
        bundle.gold_matches, error_rate=ERROR_RATE, seed=seed
    )


RUNS = {
    "remp": (Remp, RempConfig(), "remp"),
    "hybrid": (HybridRemp, RempConfig(), "remp"),
    "budget-2": (Remp, RempConfig(budget=2), "remp"),
    "maxinf": (Remp, RempConfig(), "maxinf"),
    "maxpr": (Remp, RempConfig(), "maxpr"),
    # Strict posteriors leave split votes unresolved, so priors move.
    "strict": (Remp, RempConfig(match_posterior=0.999, non_match_posterior=0.001), "remp"),
}


class TestFoldOracle:
    @pytest.mark.parametrize("name", sorted(RUNS))
    def test_fold_restores_the_live_state_at_every_loop(self, bundle, state, name):
        cls, config, strategy = RUNS[name]
        remp = cls(config, seed=0)
        platform = _platform(bundle)
        driver = LoopDriver(remp, state, platform, strategy)
        deltas = []
        while driver.step() is not None:
            deltas.append(driver.checkpoint())
            folded = fold_checkpoints(deltas)
            restored = remp._make_loop_state(state)
            restored.restore(*parse_state_doc(folded.loop_state))
            live = driver.loop_state
            assert restored.snapshot() == live.snapshot()
            # The overlay keeps the live run's prior key order.
            assert list(restored.priors) == list(live.priors)
            assert restored.unresolved() == live.unresolved()
            assert folded.answer_log == platform.export_answer_log()
            assert folded.history == driver.history
            assert folded.next_loop_index == driver.next_loop
            assert folded.questions_asked == driver.questions_asked
        assert deltas, "the run must take at least one loop"
        if name == "strict":
            assert any(delta.loop_state["priors"] for delta in deltas)
        # Each delta is one loop's change: one record, fresh labels only.
        assert all(len(delta.history) == 1 for delta in deltas)
        seen: set = set()
        for delta in deltas:
            questions = {tuple(entry["question"]) for entry in delta.answer_log}
            assert not questions & seen
            seen |= questions

    def test_fold_is_associative(self, bundle, state):
        driver = LoopDriver(Remp(seed=0), state, _platform(bundle))
        deltas = []
        while driver.step() is not None:
            deltas.append(driver.checkpoint())
        assert len(deltas) >= 3
        running = None
        for delta in deltas:
            running = fold_checkpoints([delta] if running is None else [running, delta])
        assert checkpoint_to_doc(running) == checkpoint_to_doc(fold_checkpoints(deltas))
        assert fold_checkpoints([]) is None


class _Killed(Exception):
    pass


class TestSharedPlatform:
    def test_labels_held_before_the_run_resume_unbilled(self, tmp_path, bundle, state):
        """The first delta carries labels the platform held at the start.

        A ``maxpr`` run leaves labels on the platform; a ``remp`` run on
        the same platform gets some of its questions free.  Journaled to
        a store and killed after two loops, it resumes on a fresh
        platform and must bill exactly what the uninterrupted run billed.
        """

        def warmed():
            platform = _platform(bundle)
            Remp(seed=0).run(bundle.kb1, bundle.kb2, platform, "maxpr", state=state)
            return platform

        platform = warmed()
        held = set(platform.recorded_questions())
        uninterrupted = Remp(seed=0).run(bundle.kb1, bundle.kb2, platform, state=state)
        assert held & {q for r in uninterrupted.history for q in r.questions}

        with RunStore(tmp_path / "s.db") as store:
            run_id = store.create_run("iimb", 0, 0.2, None, error_rate=ERROR_RATE)
            driver = LoopDriver(Remp(seed=0), state, warmed())

            def sink(delta):
                store.save_checkpoint(run_id, delta)
                if delta.next_loop_index == 2:
                    raise _Killed

            with pytest.raises(_Killed):
                driver.run(sink)
            checkpoint = store.load_checkpoint(run_id)
        assert held <= {tuple(entry["question"]) for entry in checkpoint.answer_log}
        resumed = Remp(seed=0).run(
            bundle.kb1, bundle.kb2, _platform(bundle), state=state, resume_from=checkpoint
        )
        assert result_to_doc(resumed) == result_to_doc(uninterrupted)


def _submit(service):
    return service.submit("iimb", scale=0.2, error_rate=ERROR_RATE, background=False)


def _journal(path, run_id):
    conn = sqlite3.connect(path)
    try:
        return [
            json.loads(payload)
            for (payload,) in conn.execute(
                "SELECT payload FROM checkpoint_journal"
                " WHERE run_id = ? AND shard_id IS NULL ORDER BY seq",
                (run_id,),
            )
        ]
    finally:
        conn.close()


class TestStoreJournal:
    @pytest.fixture(scope="class")
    def uninterrupted(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("journal") / "ref.db"
        with MatchingService(str(path)) as service:
            return result_to_doc(service.result(_submit(service)))

    def test_one_row_per_loop_holding_only_its_changes(self, tmp_path, uninterrupted):
        path = str(tmp_path / "s.db")
        with MatchingService(path) as service:
            run_id = _submit(service)
            loops = 0
            while service.step(run_id):
                loops += 1
            rows = _journal(path, run_id)
            assert len(rows) == loops == uninterrupted["num_loops"]
            assert all(len(row["history"]) == 1 for row in rows)
            seen: set = set()
            for row in rows:
                questions = {tuple(entry["question"]) for entry in row["answer_log"]}
                assert not questions & seen
                seen |= questions
            assert result_to_doc(service.result(run_id)) == uninterrupted
            # A finished run's journal is gone; a failed one would keep it.
            assert _journal(path, run_id) == []

    def test_failed_append_leaves_no_gap(self, tmp_path, uninterrupted, monkeypatch):
        """A step whose journal append fails restarts from the journal."""
        path = str(tmp_path / "s.db")
        with MatchingService(path) as service:
            run_id = _submit(service)
            assert service.step(run_id)

            def lost(run_id, checkpoint):
                raise sqlite3.OperationalError("disk I/O error")

            monkeypatch.setattr(service.store, "save_checkpoint", lost)
            with pytest.raises(sqlite3.OperationalError):
                service.step(run_id)
            monkeypatch.undo()
            while service.step(run_id):
                checkpoint = service.store.load_checkpoint(run_id)
                assert len(checkpoint.history) == checkpoint.next_loop_index
            assert result_to_doc(service.result(run_id)) == uninterrupted

    def test_cache_info_counts_runs_not_rows(self, tmp_path, capsys):
        path = str(tmp_path / "s.db")
        with MatchingService(path) as service:
            run_id = _submit(service)
            for _ in range(3):
                assert service.step(run_id)
            assert len(_journal(path, run_id)) == 3
            assert service.store.stats()["checkpoints"] == 1
        capsys.readouterr()
        assert main(["cache", "info", "--store", path]) == 0
        assert "checkpoints: 1\n" in capsys.readouterr().out

    def test_parent_format_row_resumes(self, tmp_path, bundle, state, uninterrupted):
        """A full ``checkpoints`` row from before the journal folds as its base.

        The row is written with plain ``sqlite3``; the resumed run steps
        twice (journal rows on top of the old row), is interrupted again,
        and the second resume still reaches the uninterrupted result.
        """
        path = str(tmp_path / "s.db")
        with MatchingService(path) as service:
            run_id = _submit(service)
            assert service.step(run_id)
            assert service.step(run_id)
            folded = service.store.load_checkpoint(run_id)
        loop_state = Remp()._make_loop_state(state)
        loop_state.restore(*parse_state_doc(folded.loop_state))
        full = checkpoint_to_doc(folded)
        full["loop_state"] = loop_state.snapshot()
        conn = sqlite3.connect(path)
        with conn:
            conn.execute("DELETE FROM checkpoint_journal WHERE run_id = ?", (run_id,))
            conn.execute(
                "INSERT INTO checkpoints (run_id, payload, updated_at) VALUES (?, ?, ?)",
                (run_id, json.dumps(full, sort_keys=True), "2026-01-01"),
            )
        conn.close()

        with MatchingService(path) as service:
            service.resume(run_id, background=False)
            assert service.step(run_id)
            assert service.step(run_id)
            assert len(_journal(path, run_id)) == 2
            assert service.store.load_checkpoint(run_id).next_loop_index == 4
        with MatchingService(path) as service:
            service.resume(run_id, background=False)
            assert result_to_doc(service.result(run_id)) == uninterrupted
            assert service.store.stats()["checkpoints"] == 0


class TestShardJournal:
    def test_lost_shard_append_stays_out_of_the_requeue_fold(
        self, tmp_path, clustered6_bundle, prepared_clustered6, monkeypatch
    ):
        """A requeued shard resumes from what its journal holds, no further.

        One graph shard (``target_shards=1``) loops several times.  Its
        second checkpoint append fails, so the inline runner requeues
        it; the run dies at the next checkpoint, and the shard's folded
        journal must still be a consistent prefix of the run.
        """
        crowd = CrowdSpec(
            truth=clustered6_bundle.gold_matches, error_rate=ERROR_RATE, seed=0
        )
        with RunStore(tmp_path / "s.db") as store:
            run_id = store.create_run("clustered", 0, 1.0, None, workers=1)
            save = store.save_shard_checkpoint
            calls = []

            def flaky(run_id, shard_id, checkpoint):
                calls.append(shard_id)
                if len(calls) == 2:
                    raise faults.InjectedFault("append lost")
                save(run_id, shard_id, checkpoint)

            def die(event):
                if event.kind == "checkpointed" and len(calls) > 2:
                    raise _Killed

            monkeypatch.setattr(store, "save_shard_checkpoint", flaky)
            runner = ParallelRunner(
                workers=1, store=store, run_id=run_id, on_event=die, target_shards=1
            )
            with pytest.raises(_Killed):
                runner.run(prepared_clustered6, crowd)
            ((kind, checkpoint),) = store.load_shard_records(run_id).values()
        assert kind == "loop"
        assert len(checkpoint.history) == checkpoint.next_loop_index == 2
