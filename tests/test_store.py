"""Tests for the persistent run store and its stable serialization."""

import pytest

from repro.core import RempConfig
from repro.core.pipeline import LoopCheckpoint, LoopRecord, RempResult
from repro.kb import KnowledgeBase, kb_from_doc, kb_to_doc
from repro.store import (
    RunStore,
    checkpoint_from_doc,
    checkpoint_to_doc,
    config_from_doc,
    config_hash,
    config_to_doc,
    result_from_doc,
    result_to_doc,
)


@pytest.fixture(scope="module")
def bundle(bundle_iimb_02):
    return bundle_iimb_02


class TestKBSerialization:
    def test_round_trip_equality(self, bundle):
        doc = kb_to_doc(bundle.kb1)
        rebuilt = kb_from_doc(doc)
        assert kb_to_doc(rebuilt) == doc
        assert rebuilt.entities == bundle.kb1.entities
        assert rebuilt.num_attribute_triples == bundle.kb1.num_attribute_triples
        assert rebuilt.num_relationship_triples == bundle.kb1.num_relationship_triples

    def test_doc_is_insertion_order_independent(self):
        a = KnowledgeBase("kb")
        a.add_entity("e1", label="one")
        a.add_attribute_triple("e1", "year", 1990)
        a.add_relationship_triple("e1", "knows", "e2")
        b = KnowledgeBase("kb")
        b.add_relationship_triple("e1", "knows", "e2")
        b.add_attribute_triple("e1", "year", 1990)
        b.add_entity("e1", label="one")
        assert kb_to_doc(a) == kb_to_doc(b)

    def test_mixed_literal_types_survive(self):
        kb = KnowledgeBase("kb")
        kb.add_attribute_triple("e", "a", 3)
        kb.add_attribute_triple("e", "a", "3")
        kb.add_attribute_triple("e", "a", 2.5)
        rebuilt = kb_from_doc(kb_to_doc(kb))
        assert rebuilt.attribute_values("e", "a") == {3, "3", 2.5}


class TestConfigHash:
    def test_none_matches_default(self):
        assert config_hash(None) == config_hash(RempConfig())

    def test_sensitive_to_parameters(self):
        assert config_hash(RempConfig(mu=5)) != config_hash(RempConfig())

    def test_config_round_trip(self):
        config = RempConfig(mu=7, tau=0.8, budget=42)
        rebuilt = config_from_doc(config_to_doc(config))
        assert rebuilt == config
        assert config_hash(rebuilt) == config_hash(config)


class TestRunStore:
    def test_file_store_journals_in_wal_at_full_sync(self, tmp_path):
        """WAL changes how a commit is written, not when it is durable."""
        with RunStore(tmp_path / "store.db") as store:
            assert store._conn.execute("PRAGMA journal_mode").fetchone()[0] == "wal"
            # FULL: every commit is fsynced before it returns.
            assert store._conn.execute("PRAGMA synchronous").fetchone()[0] == 2
        with RunStore(":memory:") as store:
            assert store._conn.execute("PRAGMA journal_mode").fetchone()[0] == "memory"
            assert store._conn.execute("PRAGMA synchronous").fetchone()[0] == 2

    def test_close_folds_the_wal_into_the_main_file(self, tmp_path):
        """After close no sidecar remains, and the main file holds every row."""
        import sqlite3

        path = tmp_path / "store.db"
        sidecars = [tmp_path / "store.db-wal", tmp_path / "store.db-shm"]
        store = RunStore(path)
        run_ids = {store.create_run("iimb", 0, 0.2, None) for _ in range(3)}
        store.append_run_event(sorted(run_ids)[0], "status.done")
        assert all(sidecar.exists() for sidecar in sidecars)
        store.close()
        assert not any(sidecar.exists() for sidecar in sidecars)
        conn = sqlite3.connect(path)
        try:
            assert {row[0] for row in conn.execute("SELECT run_id FROM runs")} == run_ids
            assert conn.execute("SELECT COUNT(*) FROM run_events").fetchone()[0] == 1
        finally:
            conn.close()

    def test_run_ledger_lifecycle(self, tmp_path):
        with RunStore(tmp_path / "store.db") as store:
            run_id = store.create_run("iimb", 0, 0.2, RempConfig(mu=5), error_rate=0.1)
            record = store.get_run(run_id)
            assert record.status == "queued"
            assert record.error_rate == 0.1
            assert store.get_run_config(run_id).mu == 5
            store.update_run_status(run_id, "running")
            result = RempResult(matches={("a", "b")}, questions_asked=3, num_loops=1)
            store.finish_run(run_id, result)
            record = store.get_run(run_id)
            assert record.status == "done"
            assert record.questions_asked == 3
            assert store.get_result(run_id).matches == {("a", "b")}
            assert [r.run_id for r in store.list_runs()] == [run_id]

    def test_fail_run_keeps_checkpoint(self, tmp_path):
        with RunStore(tmp_path / "store.db") as store:
            run_id = store.create_run("iimb", 0, 0.2, None)
            checkpoint = LoopCheckpoint(
                next_loop_index=2,
                questions_asked=4,
                history=[],
                loop_state={
                    "priors": [],
                    "labeled_matches": [],
                    "inferred_matches": [],
                    "resolved_matches": [],
                    "resolved_non_matches": [],
                },
                answer_log=[],
            )
            store.save_checkpoint(run_id, checkpoint)
            store.fail_run(run_id, "boom")
            assert store.get_run(run_id).status == "failed"
            assert store.load_checkpoint(run_id) is not None
            assert store.get_run(run_id).questions_asked == 4

    def test_unknown_status_rejected(self, tmp_path):
        with RunStore(tmp_path / "store.db") as store:
            run_id = store.create_run("iimb", 0, 0.2, None)
            with pytest.raises(ValueError, match="unknown run status"):
                store.update_run_status(run_id, "exploded")

    def test_workers_column_round_trip(self, tmp_path):
        with RunStore(tmp_path / "store.db") as store:
            mono = store.create_run("iimb", 0, 0.2, None)
            part = store.create_run("iimb", 0, 0.2, None, workers=4)
            assert store.get_run(mono).workers is None
            assert not store.get_run(mono).partitioned
            assert store.get_run(part).workers == 4
            assert store.get_run(part).partitioned

    def test_workers_column_migrated_into_old_store(self, tmp_path):
        """A PR-1-era database (no workers column) opens and upgrades."""
        import sqlite3

        path = tmp_path / "old.db"
        conn = sqlite3.connect(path)
        conn.executescript(
            """
            CREATE TABLE runs (
                run_id TEXT PRIMARY KEY, dataset TEXT NOT NULL,
                seed INTEGER NOT NULL, scale REAL NOT NULL,
                config_hash TEXT NOT NULL, strategy TEXT NOT NULL,
                error_rate REAL NOT NULL DEFAULT 0.0, status TEXT NOT NULL,
                config_json TEXT NOT NULL,
                questions_asked INTEGER NOT NULL DEFAULT 0,
                result_json TEXT, error TEXT,
                created_at TEXT NOT NULL, updated_at TEXT NOT NULL
            );
            INSERT INTO runs VALUES ('r1', 'iimb', 0, 0.2, 'h', 'remp', 0.0,
                                     'done', '{}', 3, NULL, NULL, 't0', 't1');
            """
        )
        conn.commit()
        conn.close()
        with RunStore(path) as store:
            record = store.get_run("r1")
            assert record is not None
            assert record.workers is None
            assert store.create_run("iimb", 0, 0.2, None, workers=2)


class TestShardCheckpoints:
    def _checkpoint(self) -> LoopCheckpoint:
        return LoopCheckpoint(
            next_loop_index=1,
            questions_asked=2,
            history=[],
            loop_state={
                "priors": [["a", "b", 0.5]],
                "labeled_matches": [["a", "b"]],
                "inferred_matches": [],
                "resolved_matches": [["a", "b"]],
                "resolved_non_matches": [],
            },
            answer_log=[],
        )

    def test_loop_and_done_round_trip(self, tmp_path):
        with RunStore(tmp_path / "store.db") as store:
            run_id = store.create_run("iimb", 0, 0.2, None, workers=2)
            store.save_shard_checkpoint(run_id, 0, self._checkpoint())
            result = RempResult(matches={("a", "b")}, questions_asked=2, num_loops=1)
            log = [{"question": ["a", "b"], "worker_id": "w0",
                    "label": True, "worker_quality": 1.0}]
            store.save_shard_result(
                run_id, 1, "u1", "graph", result, {"priors": []}, log
            )
            units, journals = store.load_shard_records(run_id)
            assert set(journals) == {0}
            assert journals[0].questions_asked == 2
            assert units == {
                "u1": {
                    "key": "u1",
                    "origin": run_id,
                    "kind": "graph",
                    "result": result_to_doc(result),
                    "snapshot": {"priors": []},
                    "answer_log": log,
                }
            }

    def test_done_overwrites_loop(self, tmp_path):
        with RunStore(tmp_path / "store.db") as store:
            run_id = store.create_run("iimb", 0, 0.2, None, workers=2)
            store.save_shard_checkpoint(run_id, 0, self._checkpoint())
            result = RempResult(matches=set(), questions_asked=2, num_loops=1)
            store.save_shard_result(run_id, 0, "u0", "graph", result, {}, [])
            units, journals = store.load_shard_records(run_id)
            assert set(units) == {"u0"}
            assert journals == {}

    def test_finish_run_clears_shard_rows(self, tmp_path):
        with RunStore(tmp_path / "store.db") as store:
            run_id = store.create_run("iimb", 0, 0.2, None, workers=2)
            store.save_shard_checkpoint(run_id, 0, self._checkpoint())
            result = RempResult(matches=set(), questions_asked=0, num_loops=0)
            store.save_shard_result(run_id, 1, "u1", "graph", result, {}, [])
            assert store.stats()["shard_journals"] == 1
            assert store.stats()["stream_units"] == 1
            store.finish_run(run_id, result)
            assert store.load_shard_records(run_id) == ({}, {})
            assert store.stats()["shard_journals"] == 0
            assert store.stats()["stream_units"] == 0

    def test_finish_run_keeps_a_stream_runs_unit_rows(self, tmp_path):
        """A stream run's unit rows are the next update's reuse input."""
        with RunStore(tmp_path / "store.db") as store:
            run_id = store.create_run("iimb", 0, 0.2, None, stream_step=0)
            store.save_shard_checkpoint(run_id, 0, self._checkpoint())
            result = RempResult(matches=set(), questions_asked=0, num_loops=0)
            store.save_shard_result(run_id, 1, "u1", "graph", result, {}, [])
            store.finish_run(run_id, result)
            units, journals = store.load_shard_records(run_id)
            assert set(units) == {"u1"} and journals == {}
            assert set(store.load_unit_record_docs(run_id)) == {"u1"}

    def test_fail_run_keeps_shard_rows(self, tmp_path):
        with RunStore(tmp_path / "store.db") as store:
            run_id = store.create_run("iimb", 0, 0.2, None, workers=2)
            store.save_shard_checkpoint(run_id, 3, self._checkpoint())
            store.fail_run(run_id, "boom")
            units, journals = store.load_shard_records(run_id)
            assert units == {} and set(journals) == {3}


class TestUnitRecords:
    """Unit rows: payloads for finished shards, references for reused units."""

    @staticmethod
    def _save(store, run_id, key, kind):
        result = RempResult(matches=set(), questions_asked=0, num_loops=0)
        store.save_shard_result(run_id, 0, key, kind, result, {}, [])

    @staticmethod
    def _finish(store, run_id, units):
        """Finish stream run ``run_id`` with ``units`` (key -> origin)."""
        result = RempResult(matches=set(), questions_asked=0, num_loops=0)
        store.finish_run(run_id, result, units)

    @staticmethod
    def _kinds(docs):
        return {key: (doc["kind"], doc["origin"]) for key, doc in docs.items()}

    def test_reference_reads_its_origins_payload(self, tmp_path):
        with RunStore(tmp_path / "store.db") as store:
            store.create_run("iimb", 0, 0.2, None, run_id="a", stream_step=0)
            store.create_run("iimb", 0, 0.2, None, run_id="b", stream_step=1)
            self._save(store, "a", "u", "graph")
            self._save(store, "a", "v", "x")
            self._save(store, "b", "v", "y")
            self._finish(store, "b", {"u": "a", "v": "b"})
            docs = store.load_unit_record_docs("b")
            assert self._kinds(docs) == {"u": ("graph", "a"), "v": ("y", "b")}
            assert {doc["key"] for doc in docs.values()} == {"u", "v"}
            # A rewrite replaces only the run's reference rows.
            self._finish(store, "b", {"v": "b"})
            assert self._kinds(store.load_unit_record_docs("b")) == {"v": ("y", "b")}
            self._finish(store, "b", {"u": "a", "v": "b"})
            assert store.stats()["stream_units"] == 4
            # A resume reads the run's own payload rows, not its references.
            units, _ = store.load_shard_records("b")
            assert self._kinds(units) == {"v": ("y", "b")}

    def test_payload_leaves_key_and_origin_to_the_columns(self, tmp_path):
        """A row written before the columns held them reads the same."""
        import json
        import sqlite3

        path = tmp_path / "store.db"
        with RunStore(path) as store:
            self._save(store, "a", "u", "graph")
        conn = sqlite3.connect(path)
        with conn:
            (payload,) = conn.execute("SELECT payload FROM stream_units").fetchone()
            doc = json.loads(payload)
            assert set(doc) == {"kind", "result", "snapshot", "answer_log"}
            conn.execute(
                "INSERT INTO stream_units (run_id, unit_key, payload, updated_at)"
                " VALUES ('old', 'u', ?, 't')",
                (json.dumps({**doc, "key": "u", "origin": "old"}),),
            )
        conn.close()
        with RunStore(path) as store:
            new, old = store.load_unit_record_docs("a"), store.load_unit_record_docs("old")
        assert old == {"u": {**new["u"], "origin": "old"}}

    def test_reference_without_origin_row_is_refused(self, tmp_path):
        import sqlite3

        path = tmp_path / "store.db"
        with RunStore(path) as store:
            store.create_run("iimb", 0, 0.2, None, run_id="b", stream_step=1)
            self._save(store, "a", "u", "graph")
            self._finish(store, "b", {"u": "a"})
        with sqlite3.connect(path) as conn:
            conn.execute("DELETE FROM stream_units WHERE run_id = 'a'")
        conn.close()
        with RunStore(path) as store:
            with pytest.raises(ValueError, match="'u' of run 'b' references run 'a'"):
                store.load_unit_record_docs("b")
            with pytest.raises(ValueError, match="'u' of run 'b' references run 'a'"):
                store.get_result("b")


class TestCheckpointSerialization:
    def test_round_trip(self):
        checkpoint = LoopCheckpoint(
            next_loop_index=3,
            questions_asked=12,
            history=[
                LoopRecord(
                    loop_index=0,
                    questions=[("a", "b")],
                    labeled_matches=1,
                    labeled_non_matches=0,
                    unresolved_questions=0,
                    inferred_matches_so_far=2,
                )
            ],
            loop_state={
                "priors": [["a", "b", 0.7]],
                "labeled_matches": [["a", "b"]],
                "inferred_matches": [],
                "resolved_matches": [["a", "b"]],
                "resolved_non_matches": [],
            },
            answer_log=[
                {"question": ["a", "b"], "worker_id": "w0", "label": True,
                 "worker_quality": 0.95}
            ],
        )
        rebuilt = checkpoint_from_doc(checkpoint_to_doc(checkpoint))
        assert rebuilt == checkpoint

    def test_result_round_trip(self):
        result = RempResult(
            matches={("a", "b"), ("c", "d")},
            questions_asked=5,
            num_loops=2,
            history=[],
            labeled_matches={("a", "b")},
            inferred_matches={("c", "d")},
            isolated_matches=set(),
            non_matches={("a", "d")},
        )
        rebuilt = result_from_doc(result_to_doc(result))
        assert rebuilt == result
