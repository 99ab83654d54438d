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
from repro.store.serialize import checkpoint_from_doc, checkpoint_to_doc, result_to_doc

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


def _full_checkpoint(state, folded) -> str:
    """``folded`` as a pre-journal row: its loop state in full."""
    loop_state = Remp()._make_loop_state(state)
    loop_state.restore(*parse_state_doc(folded.loop_state))
    full = checkpoint_to_doc(folded)
    full["loop_state"] = loop_state.snapshot()
    return json.dumps(full, sort_keys=True)


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


@pytest.fixture(scope="module")
def uninterrupted(tmp_path_factory):
    path = tmp_path_factory.mktemp("journal") / "ref.db"
    with MatchingService(str(path)) as service:
        return result_to_doc(service.result(_submit(service)))


class TestStoreJournal:
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

    def test_failed_finish_returns_only_a_committed_result(self, tmp_path, uninterrupted):
        """A finish whose ledger write fails publishes no result.

        Every write attempt of ``finish_run`` fails, twice: each
        ``result()`` raises and the run stays ``failed`` with no stored
        result.  Once the plan is lifted, the retry restarts from the
        journal and lands on the uninterrupted run, stored as returned.
        """
        plan = faults.FaultPlan(
            [faults.FaultRule("store.write", times=None, where={"op": "finish_run"})]
        )
        path = str(tmp_path / "s.db")
        with MatchingService(path) as service:
            run_id = _submit(service)
            with faults.activate(plan):
                for _ in range(2):
                    with pytest.raises(faults.InjectedFault):
                        service.result(run_id)
                    assert service.status(run_id) == "failed"
                    assert service.store.get_result(run_id) is None
            returned = result_to_doc(service.result(run_id))
            assert service.status(run_id) == "done"
            assert result_to_doc(service.store.get_result(run_id)) == returned
        assert returned == uninterrupted

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

        The row is written with plain ``sqlite3`` into a store marked as
        written by an earlier release; the open moves it into the journal,
        the resumed run steps twice (journal rows on top of the old row),
        is interrupted again, and the second resume still reaches the
        uninterrupted result.
        """
        path = str(tmp_path / "s.db")
        with MatchingService(path) as service:
            run_id = _submit(service)
            assert service.step(run_id)
            assert service.step(run_id)
            folded = service.store.load_checkpoint(run_id)
        conn = sqlite3.connect(path)
        with conn:
            conn.execute("DELETE FROM checkpoint_journal WHERE run_id = ?", (run_id,))
            conn.execute(
                "INSERT INTO checkpoints (run_id, payload, updated_at) VALUES (?, ?, ?)",
                (run_id, _full_checkpoint(state, folded), "2026-01-01"),
            )
            conn.execute("PRAGMA user_version = 0")
        conn.close()

        with MatchingService(path) as service:
            service.resume(run_id, background=False)
            assert service.step(run_id)
            assert service.step(run_id)
            assert len(_journal(path, run_id)) == 3
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
            units, journals = store.load_shard_records(run_id)
        assert units == {}
        (checkpoint,) = journals.values()
        assert len(checkpoint.history) == checkpoint.next_loop_index == 2


class _OldStore:
    """A store as a release before the journal left it (``user_version`` 0).

    It holds two interrupted runs.  The monolithic run ``mono`` was killed
    after four loops: the first two are one full ``checkpoints`` row, with
    two journal rows on top.  The partitioned run ``part`` was killed
    after ``kills`` shard checkpoints: each finished shard is a ``done``
    row and the mid-loop shard a ``kind='loop'`` row, and the next shard
    has a lease stub, in a ``shard_checkpoints`` table with the lease
    columns.  Like the releases of that time, it also holds a
    ``prepared`` table of cached prepared states, and each run's stored
    config carries the discovery switch ``use_dijkstra`` (true for
    ``mono``, false for ``part``).
    """

    def __init__(self, path, state, shard_state, crowd, kills):
        self.path = str(path)
        with MatchingService(self.path) as service:
            self.mono = _submit(service)
            for _ in range(4):
                assert service.step(self.mono)
            self.mono_checkpoint = service.store.load_checkpoint(self.mono)
        with RunStore(self.path) as store:
            self.part = store.create_run("clustered", 0, 1.0, None, workers=1)
            seen = []

            def die(event):
                if event.kind == "checkpointed":
                    seen.append(event)
                    if len(seen) == kills:
                        raise _Killed

            runner = ParallelRunner(workers=1, store=store, run_id=self.part, on_event=die)
            with pytest.raises(_Killed):
                runner.run(shard_state, crowd)
            units, journals = store.load_shard_records(self.part)
        keys = runner._shard_keys(runner.plan(shard_state))
        (self.loop_shard, checkpoint), = journals.items()
        self.loop_questions = {tuple(e["question"]) for e in checkpoint.answer_log}
        self.done_shards = {s for s, key in keys.items() if key in units}
        conn = sqlite3.connect(self.path)
        with conn:
            first_two = conn.execute(
                "SELECT seq, payload FROM checkpoint_journal"
                " WHERE run_id = ? AND shard_id IS NULL ORDER BY seq LIMIT 2",
                (self.mono,),
            ).fetchall()
            folded = fold_checkpoints(
                [checkpoint_from_doc(json.loads(payload)) for _, payload in first_two]
            )
            conn.execute(
                "INSERT INTO checkpoints (run_id, payload, updated_at) VALUES (?, ?, ?)",
                (self.mono, _full_checkpoint(state, folded), "2026-01-01"),
            )
            conn.executemany(
                "DELETE FROM checkpoint_journal WHERE seq = ?",
                [(seq,) for seq, _ in first_two],
            )
            conn.execute(
                """
                CREATE TABLE shard_checkpoints (
                    run_id TEXT NOT NULL, shard_id INTEGER NOT NULL,
                    kind TEXT NOT NULL, payload TEXT NOT NULL,
                    updated_at TEXT NOT NULL, lease_owner TEXT,
                    lease_expires REAL, heartbeat_at REAL,
                    attempts INTEGER NOT NULL DEFAULT 0,
                    PRIMARY KEY (run_id, shard_id))
                """
            )
            legacy = [
                (s, "done", json.dumps({"kind": "done", **{
                    name: units[keys[s]][name]
                    for name in ("result", "snapshot", "answer_log")
                }}))
                for s in sorted(self.done_shards)
            ]
            legacy.append((self.loop_shard, "loop", json.dumps(
                {"kind": "loop", "checkpoint": checkpoint_to_doc(checkpoint)}
            )))
            legacy.append((self.loop_shard + 1, "lease", "{}"))
            conn.executemany(
                "INSERT INTO shard_checkpoints (run_id, shard_id, kind, payload,"
                " updated_at) VALUES (?, ?, ?, ?, '2026-01-01')",
                [(self.part, *row) for row in legacy],
            )
            conn.execute("DELETE FROM stream_units")
            conn.execute("DELETE FROM checkpoint_journal WHERE shard_id IS NOT NULL")
            conn.execute(
                "CREATE TABLE prepared (fingerprint TEXT NOT NULL,"
                " config_hash TEXT NOT NULL, version INTEGER NOT NULL,"
                " payload TEXT NOT NULL, created_at TEXT NOT NULL,"
                " PRIMARY KEY (fingerprint, config_hash, version))"
            )
            conn.execute("INSERT INTO prepared VALUES ('f', 'x', 1, '{}', '2026-01-01')")
            for run_id, use_dijkstra in ((self.mono, True), (self.part, False)):
                (config_json,) = conn.execute(
                    "SELECT config_json FROM runs WHERE run_id = ?", (run_id,)
                ).fetchone()
                config = {**json.loads(config_json), "use_dijkstra": use_dijkstra}
                conn.execute(
                    "UPDATE runs SET config_json = ? WHERE run_id = ?",
                    (json.dumps(config, sort_keys=True), run_id),
                )
            conn.execute("PRAGMA user_version = 0")
        conn.close()

    def dump(self) -> tuple:
        """The file's user version, and its schema and rows as SQL."""
        conn = sqlite3.connect(self.path)
        try:
            version = conn.execute("PRAGMA user_version").fetchone()[0]
            return version, list(conn.iterdump())
        finally:
            conn.close()


class TestPreJournalMigration:
    """A store written before the journal migrates once, on open."""

    @pytest.fixture(scope="class")
    def shards(self, clustered6_bundle, prepared_clustered6):
        """The partitioned world's crowd and its uninterrupted result."""
        crowd = CrowdSpec(
            truth=clustered6_bundle.gold_matches, error_rate=ERROR_RATE, seed=0
        )
        reference = ParallelRunner(workers=1).run(prepared_clustered6, crowd)
        return crowd, result_to_doc(reference)

    def _old(self, tmp_path, state, prepared_clustered6, shards, kills=3):
        return _OldStore(
            tmp_path / "old.db", state, prepared_clustered6, shards[0], kills
        )

    @pytest.mark.parametrize("kills", [1, 3, 5])
    def test_migrates_once_and_resumes_every_run(
        self, tmp_path, state, prepared_clustered6, shards, uninterrupted, kills
    ):
        old = self._old(tmp_path, state, prepared_clustered6, shards, kills)
        assert len(old.done_shards) == kills - 1
        with RunStore(old.path) as store:
            tables = {name for (name,) in store._conn.execute(
                "SELECT name FROM sqlite_master WHERE type = 'table'"
            )}
            assert not {"shard_checkpoints", "prepared"} & tables
            assert store._conn.execute("SELECT COUNT(*) FROM checkpoints").fetchone()[0] == 0
            # The full row is the base of its journal; the two rows on top
            # fold over it into the interrupted run's state.
            migrated = store.load_checkpoint(old.mono)
            assert len(_journal(old.path, old.mono)) == 3
            for name in ("next_loop_index", "questions_asked", "history", "answer_log"):
                assert getattr(migrated, name) == getattr(old.mono_checkpoint, name)
            # The loop row keeps its questions; done rows and stubs go.
            units, journals = store.load_shard_records(old.part)
            assert units == {} and set(journals) == {old.loop_shard}
            answered = {tuple(e["question"]) for e in journals[old.loop_shard].answer_log}
            assert answered == old.loop_questions
            # Either stored discovery switch loads as today's one config.
            assert store.get_run_config(old.mono) == RempConfig()
            assert store.get_run_config(old.part) == RempConfig()
        assert old.dump()[0] == 1

        with MatchingService(old.path) as service:
            service.resume(old.mono, background=False)
            assert result_to_doc(service.result(old.mono)) == uninterrupted
        with RunStore(old.path) as store:
            result = ParallelRunner(workers=1, store=store, run_id=old.part).run(
                prepared_clustered6, shards[0]
            )
        assert result_to_doc(result) == shards[1]

    def test_a_second_open_changes_nothing(
        self, tmp_path, state, prepared_clustered6, shards
    ):
        old = self._old(tmp_path, state, prepared_clustered6, shards)
        RunStore(old.path).close()
        migrated = old.dump()
        RunStore(old.path).close()
        assert old.dump() == migrated

    @pytest.mark.parametrize("table", ["checkpoints", "shard_checkpoints"])
    def test_a_row_that_does_not_parse_fails_the_open_and_keeps_the_file(
        self, tmp_path, state, prepared_clustered6, shards, table
    ):
        old = self._old(tmp_path, state, prepared_clustered6, shards)
        conn = sqlite3.connect(old.path)
        with conn:
            conn.execute(
                f"UPDATE {table} SET payload = ? WHERE run_id IN (?, ?)",
                ('{"kind": "loop"}', old.mono, old.part),
            )
        conn.close()
        before = old.dump()
        raw = (tmp_path / "old.db").read_bytes()
        with pytest.raises(ValueError, match="does not parse"):
            RunStore(old.path)
        assert old.dump() == before
        assert (tmp_path / "old.db").read_bytes() == raw
        assert sorted(p.name for p in tmp_path.iterdir()) == ["old.db"]
