"""Tests for the concurrent matching service."""

import gc
import json
import shutil
import sqlite3
import threading
import weakref
from contextlib import closing
from types import SimpleNamespace

import pytest

from repro.core import Remp, RempConfig
from repro.crowd import CrowdPlatform
from repro.obs import runtime as obs
from repro.service import MatchingService
from repro.store import RunStore
from repro.store.serialize import checkpoint_to_doc, result_to_doc
from repro.stream import DeltaOp, KBDelta


@pytest.fixture(scope="module")
def bundle(bundle_iimb_02):
    return bundle_iimb_02


@pytest.fixture(scope="module")
def direct_result(bundle):
    platform = CrowdPlatform.with_oracle(bundle.gold_matches)
    return Remp().run(bundle.kb1, bundle.kb2, platform)


class TestPreparedCache:
    def test_second_run_skips_prepare(self, tmp_path, monkeypatch):
        calls = []
        original = Remp.prepare

        def counting(self, kb1, kb2):
            calls.append(1)
            return original(self, kb1, kb2)

        monkeypatch.setattr(Remp, "prepare", counting)
        with MatchingService(RunStore(tmp_path / "store.db")) as service:
            a = service.submit("iimb", scale=0.2, background=False)
            b = service.submit("iimb", scale=0.2, background=False)
            result_a = service.result(a)
            result_b = service.result(b)
        assert len(calls) == 1  # the acceptance criterion: one prepare()
        assert result_a.matches == result_b.matches
        assert result_a.questions_asked == result_b.questions_asked

    def test_cache_hit_returns_identical_artifacts(self, tmp_path):
        with MatchingService(RunStore(tmp_path / "store.db")) as service:
            first = service.prepared("iimb", scale=0.2)
            second = service.prepared("iimb", scale=0.2)
            assert second is first  # memory cache
            assert service.cache_hits == 1
            assert service.cache_misses == 1

    def test_edited_dataset_misses_the_stored_state(self, monkeypatch):
        """The key holds KB content, so an edited generator is never served
        the state cached for the old KBs under the same dataset name."""
        from dataclasses import replace

        import repro.service.service as service_module
        from repro.datasets import load_dataset
        from repro.kb.io import kb_to_doc
        from repro.kb.model import LABEL_ATTRIBUTE

        bundle = load_dataset("iimb", seed=0, scale=0.2)
        kb1 = bundle.kb1.copy()
        entity = min(e for e in kb1.entities if kb1.label(e))
        label = kb1.label(entity)
        assert kb1.remove_attribute_triple(entity, LABEL_ATTRIBUTE, label)
        kb1.add_attribute_triple(entity, LABEL_ATTRIBUTE, label + " rewritten")
        edited = replace(bundle, kb1=kb1)
        with MatchingService(":memory:") as service:
            first = service.prepared("iimb", scale=0.2)
            monkeypatch.setattr(
                service_module, "load_dataset", lambda name, seed=0, scale=1.0: edited
            )
            state = service.prepared("iimb", scale=0.2)
            assert (service.cache_hits, service.cache_misses) == (0, 2)
        assert state is not first
        assert kb_to_doc(state.kb1) == kb_to_doc(edited.kb1)
        assert kb_to_doc(first.kb1) == kb_to_doc(bundle.kb1)

    def test_concurrent_prepare_deduplicated(self, tmp_path, monkeypatch):
        calls = []
        original = Remp.prepare

        def counting(self, kb1, kb2):
            calls.append(1)
            return original(self, kb1, kb2)

        monkeypatch.setattr(Remp, "prepare", counting)
        with MatchingService(RunStore(tmp_path / "store.db")) as service:
            results = []

            def worker():
                results.append(service.prepared("iimb", scale=0.2))

            threads = [threading.Thread(target=worker) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        assert len(calls) == 1
        assert all(state is results[0] for state in results)


class TestSessionLifecycle:
    def test_background_submit_result(self, tmp_path, bundle, direct_result):
        with MatchingService(RunStore(tmp_path / "store.db"), max_workers=2) as service:
            run_id = service.submit("iimb", scale=0.2)
            result = service.result(run_id)
            assert service.status(run_id) == "done"
            assert result.matches == direct_result.matches
            assert result.questions_asked == direct_result.questions_asked
            record = service.store.get_run(run_id)
            assert record.status == "done"
            assert record.questions_asked == result.questions_asked

    def test_foreground_step_lifecycle(self, tmp_path, direct_result):
        with MatchingService(RunStore(tmp_path / "store.db")) as service:
            run_id = service.submit("iimb", scale=0.2, background=False)
            assert service.status(run_id) == "queued"
            steps = 0
            while service.step(run_id):
                steps += 1
                assert service.status(run_id) == "running"
            result = service.result(run_id)
            assert steps == direct_result.num_loops
            assert result.matches == direct_result.matches
            # A finished session is released: the ledger answers for it.
            with pytest.raises(KeyError):
                service._session(run_id)
            assert service.status(run_id) == "done"
            assert service.result(run_id).matches == direct_result.matches

    def test_finished_runs_release_their_sessions(self, tmp_path, direct_result):
        """Finished monolithic and partitioned runs leave nothing in memory."""
        with MatchingService(RunStore(tmp_path / "store.db"), max_workers=2) as service:
            run_ids = [service.submit("iimb", scale=0.2) for _ in range(3)]
            run_ids.append(service.submit("iimb", scale=0.2, background=False))
            run_ids.append(service.submit("iimb", scale=0.2, workers=1))
            results = [service.result(run_id) for run_id in run_ids]
            assert not set(run_ids) & set(service._sessions)
            assert not set(run_ids) & set(service._futures)
            for run_id, result in zip(run_ids, results):
                assert service.status(run_id) == "done"
                assert service.result(run_id).matches == result.matches
        for result in results[:4]:
            assert result.matches == direct_result.matches

    def test_stepping_checkpoints_each_loop(self, tmp_path):
        with MatchingService(RunStore(tmp_path / "store.db")) as service:
            run_id = service.submit("iimb", scale=0.2, background=False)
            assert service.step(run_id)
            checkpoint = service.store.load_checkpoint(run_id)
            assert checkpoint is not None
            assert checkpoint.next_loop_index == 1
            assert checkpoint.answer_log

    def test_concurrent_batch_matches_sequential(self, tmp_path, direct_result):
        with MatchingService(RunStore(tmp_path / "store.db"), max_workers=4) as service:
            run_ids = [service.submit("iimb", scale=0.2) for _ in range(3)]
            results = [service.result(run_id) for run_id in run_ids]
        for result in results:
            assert result.matches == direct_result.matches
            assert result.questions_asked == direct_result.questions_asked

    def test_result_from_ledger_after_restart(self, tmp_path):
        path = tmp_path / "store.db"
        with MatchingService(RunStore(path)) as service:
            run_id = service.submit("iimb", scale=0.2, background=False)
            finished = service.result(run_id)
        with MatchingService(RunStore(path)) as service:
            stored = service.result(run_id)
            assert stored.matches == finished.matches

    def test_unknown_run_rejected(self, tmp_path):
        with MatchingService(RunStore(tmp_path / "store.db")) as service:
            with pytest.raises(KeyError):
                service.status("nope")
            with pytest.raises(KeyError):
                service.resume("nope")


class TestServiceResume:
    def test_resume_interrupted_session(self, tmp_path, direct_result):
        path = tmp_path / "store.db"
        with MatchingService(RunStore(path)) as service:
            run_id = service.submit("iimb", scale=0.2, background=False)
            # Two loops, then the process "dies".
            assert service.step(run_id)
            assert service.step(run_id)
            questions_so_far = service.store.load_checkpoint(run_id).questions_asked

        with MatchingService(RunStore(path)) as service:
            service.resume(run_id, background=False)
            resumed = service.result(run_id)
            assert resumed.matches == direct_result.matches
            assert resumed.questions_asked == direct_result.questions_asked
            assert resumed.questions_asked >= questions_so_far
            assert service.store.get_run(run_id).status == "done"
            # The finished run's checkpoint is cleaned up.
            assert service.store.load_checkpoint(run_id) is None

    def test_resume_live_run_rejected(self, tmp_path):
        with MatchingService(RunStore(tmp_path / "store.db")) as service:
            run_id = service.submit("iimb", scale=0.2, background=False)
            with pytest.raises(ValueError, match="live session"):
                service.resume(run_id)

    def test_resume_finished_run_rejected(self, tmp_path):
        with MatchingService(RunStore(tmp_path / "store.db")) as service:
            run_id = service.submit("iimb", scale=0.2, background=False)
            service.result(run_id)
            with pytest.raises(ValueError, match="already finished"):
                service.resume(run_id)

    def test_noisy_resume_matches_uninterrupted(self, tmp_path):
        config = RempConfig()
        path_a = tmp_path / "a.db"
        path_b = tmp_path / "b.db"
        with MatchingService(RunStore(path_a)) as service:
            run_id = service.submit(
                "iimb", scale=0.2, config=config, error_rate=0.1, background=False
            )
            uninterrupted = service.result(run_id)

        with MatchingService(RunStore(path_b)) as service:
            run_id = service.submit(
                "iimb", scale=0.2, config=config, error_rate=0.1, background=False
            )
            assert service.step(run_id)
        with MatchingService(RunStore(path_b)) as service:
            service.resume(run_id, background=False)
            resumed = service.result(run_id)
        assert resumed.matches == uninterrupted.matches
        assert resumed.questions_asked == uninterrupted.questions_asked


class TestStepwiseEqualsLibrary:
    @pytest.mark.parametrize("budget", [None, 2])
    def test_service_loop_is_byte_identical_to_library(self, tmp_path, bundle, budget):
        """Stepped sessions, their checkpoints and their resumes equal ``Remp.run``."""
        config = RempConfig(budget=budget)
        platform = CrowdPlatform.with_simulated_workers(
            bundle.gold_matches, error_rate=0.1, seed=0
        )
        checkpoints = []
        library = Remp(config, seed=0).run(
            bundle.kb1, bundle.kb2, platform, on_checkpoint=checkpoints.append
        )
        expected = result_to_doc(library)

        def submit(service):
            return service.submit(
                "iimb", scale=0.2, config=config, error_rate=0.1, background=False
            )

        with MatchingService(RunStore(tmp_path / "a.db")) as service:
            run_id = submit(service)
            persisted = []
            while service.step(run_id):
                persisted.append(checkpoint_to_doc(service.store.load_checkpoint(run_id)))
            assert result_to_doc(service.result(run_id)) == expected
        assert persisted == [checkpoint_to_doc(c) for c in checkpoints]

        with MatchingService(RunStore(tmp_path / "b.db")) as service:
            run_id = submit(service)
            assert service.step(run_id)
            assert service.step(run_id)
        with MatchingService(RunStore(tmp_path / "b.db")) as service:
            service.resume(run_id, background=False)
            assert result_to_doc(service.result(run_id)) == expected


def _record_doc(record) -> dict:
    """A unit record in the shape ``load_unit_record_docs`` returns."""
    return {
        "key": record.key,
        "kind": record.kind,
        "result": result_to_doc(record.result),
        "snapshot": record.snapshot,
        "answer_log": record.answer_log,
        "origin": record.origin,
    }


@pytest.fixture(scope="class")
def warm_lineage(tmp_path_factory):
    """A 9-update ``evolving`` x0.4 stream lineage built in one service.

    Holds the closed store's ``path``, the ``run_ids`` (root first), each
    run's ``warm`` result document, the ``deltas``, each run's in-memory
    unit ``records`` as documents and ``executed`` keys (collected as the
    run finishes: a finished update releases its parent's session), the
    service's final ``(cache_hits, cache_misses)`` as ``cache``, the
    runs whose unit rows it loaded as ``unit_loads`` and, once the
    lineage is built, each run's result as the service's store reads it
    back as ``stored``.
    """
    from repro.datasets import evolving_bundle

    evolving = evolving_bundle(seed=0, scale=0.4, steps=9)
    path = tmp_path_factory.mktemp("lineage") / "warm.db"
    with MatchingService(str(path)) as service:
        unit_loads = []
        load = service.store.load_unit_record_docs

        def counted_load(run_id):
            unit_loads.append(run_id)
            return load(run_id)

        service.store.load_unit_record_docs = counted_load
        warm, outcomes = [], []

        def finished(run_id):
            warm.append(result_to_doc(service.result(run_id)))
            outcomes.append(service.stream_outcome(run_id))
            return run_id

        run_ids = [
            finished(
                service.submit(
                    "evolving", scale=0.4, error_rate=0.1, background=False, stream=True
                )
            )
        ]
        for delta in evolving.deltas:
            run_ids.append(
                finished(service.update(run_ids[-1], delta, background=False))
            )
        cache = (service.cache_hits, service.cache_misses)
        del service.store.load_unit_record_docs
        stored = [result_to_doc(service.store.get_result(run_id)) for run_id in run_ids]
    return SimpleNamespace(
        path=path,
        run_ids=run_ids,
        warm=warm,
        deltas=evolving.deltas,
        records=[
            {key: _record_doc(record) for key, record in outcome.records.items()}
            for outcome in outcomes
        ],
        executed=[outcome.executed_keys for outcome in outcomes],
        cache=cache,
        unit_loads=unit_loads,
        stored=stored,
    )


class TestStreamSessions:
    def test_a_lineage_keeps_only_its_tip_session(self, tmp_path):
        """A finished update releases its parent's session, future and outcome."""
        from repro.datasets import evolving_bundle

        evolving = evolving_bundle(seed=0, scale=0.4, steps=3)
        with MatchingService(str(tmp_path / "svc.db")) as service:
            run_ids = [service.submit("evolving", scale=0.4, stream=True)]
            service.result(run_ids[0])
            root_outcome = weakref.ref(service.stream_outcome(run_ids[0]))
            for delta in evolving.deltas:
                run_ids.append(service.update(run_ids[-1], delta))
                service.result(run_ids[-1])
            finished = [
                run_id
                for run_id, session in service._sessions.items()
                if session.status == "done" and session.record.streaming
            ]
            assert finished == [run_ids[-1]]
            assert list(service._futures) == [run_ids[-1]]
            gc.collect()
            assert root_outcome() is None
            # A released run still answers from the ledger.
            assert service.status(run_ids[0]) == "done"
            assert service.result(run_ids[0]).matches

    def test_update_from_a_released_parent_equals_a_fresh_service(self, tmp_path):
        """A released parent's unit rows load as a fresh service loads them."""
        from repro.datasets import evolving_bundle

        deltas = evolving_bundle(seed=0, scale=0.4, steps=2).deltas
        path = tmp_path / "svc.db"
        with MatchingService(str(path)) as service:
            run_ids = [service.submit("evolving", scale=0.4, stream=True)]
            for delta in deltas:
                service.result(run_ids[-1])
                run_ids.append(service.update(run_ids[-1], delta))
            service.result(run_ids[-1])
            assert service.stream_outcome(run_ids[1]) is None
            loads = []
            load = service.store.load_unit_record_docs

            def counted_load(run_id):
                loads.append(run_id)
                return load(run_id)

            service.store.load_unit_record_docs = counted_load
            again = service.update(run_ids[1], deltas[1], background=False)
            released = result_to_doc(service.result(again))
            outcome = service.stream_outcome(again)
        assert loads == [run_ids[1]]
        copy = tmp_path / "fresh.db"
        shutil.copyfile(path, copy)
        with MatchingService(str(copy)) as fresh:
            run_id = fresh.update(run_ids[1], deltas[1], background=False)
            assert result_to_doc(fresh.result(run_id)) == released
            fresh_outcome = fresh.stream_outcome(run_id)
        assert fresh_outcome.reused_keys == outcome.reused_keys
        assert fresh_outcome.executed_keys == outcome.executed_keys

    def test_forests_ride_only_in_memory(self, tmp_path):
        """A warm update reuses its parent's forest; a cold one fits afresh.

        x4 is the smallest ``evolving`` scale whose isolated group trains.
        The forest rides only in the in-memory unit records, so a fresh
        service on a copy of the store fits, and lands on the same result.
        """
        from repro.datasets import evolving_bundle

        deltas = evolving_bundle(seed=0, scale=4, steps=2).deltas
        path = tmp_path / "svc.db"
        with MatchingService(str(path)) as service:
            run_ids = [service.submit("evolving", scale=4, stream=True, background=False)]
            warm = [result_to_doc(service.result(run_ids[0]))]
            for delta in deltas:
                run_ids.append(service.update(run_ids[-1], delta, background=False))
                warm.append(result_to_doc(service.result(run_ids[-1])))
            counters = [
                service.store.load_run_obs(run_id)["metrics"]["counters"]
                for run_id in run_ids
            ]
        assert counters[0]["isolated.forest.fitted"] >= 1
        for update in counters[1:]:
            assert update["isolated.forest.reused"] >= 1
            assert "isolated.forest.fitted" not in update
        copy = tmp_path / "cold.db"
        shutil.copyfile(path, copy)
        with MatchingService(str(copy)) as cold:
            run_id = cold.update(run_ids[1], deltas[1], background=False)
            assert result_to_doc(cold.result(run_id)) == warm[2]
            counters = cold.store.load_run_obs(run_id)["metrics"]["counters"]
        assert counters["isolated.forest.fitted"] >= 1
        assert "isolated.forest.reused" not in counters

    def test_updates_from_evicted_parents_equal_run_full(self, tmp_path):
        """A warm lineage whose every parent leaves the cache before its update.

        Two other keys fill the two-arena cache between updates, so each
        update rebuilds its parent from the ledger with one prepare: a
        state without kept components, whose splice then walks every
        retained pair.  Each update still lands on ``run_full`` of its
        post-delta KB pair.
        """
        from repro.datasets import evolving_bundle
        from repro.partition import CrowdSpec
        from repro.stream import StreamRunner

        evolving = evolving_bundle(seed=0, scale=0.4, steps=4)
        path = str(tmp_path / "evict.db")
        with MatchingService(path, memory_cache_size=2) as service:
            run_ids = [
                service.submit(
                    "evolving", scale=0.4, error_rate=0.1, background=False, stream=True
                )
            ]
            service.result(run_ids[0])
            for step, delta in enumerate(evolving.deltas, start=1):
                for seed in (1, 2):
                    service.prepared("evolving", seed=seed, scale=0.4)
                misses = service.cache_misses
                run_ids.append(service.update(run_ids[-1], delta, background=False))
                updated = result_to_doc(service.result(run_ids[-1]))
                assert service.cache_misses == misses + 1, f"parent held at step {step}"
                bundle = evolving.bundle_at(step)
                state = Remp(RempConfig()).prepare(bundle.kb1, bundle.kb2)
                scratch = StreamRunner(RempConfig(), seed=0).run_full(
                    state, CrowdSpec(truth=bundle.gold_matches, error_rate=0.1, seed=0)
                )
                assert updated == result_to_doc(scratch.result), f"drift at step {step}"

    def test_update_inherits_parent_workers(self, tmp_path):
        """A lineage started parallel stays parallel across updates."""
        from repro.datasets import evolving_bundle

        evolving = evolving_bundle(seed=0, scale=0.4, steps=2)
        with MatchingService(str(tmp_path / "svc.db")) as service:
            root = service.submit(
                "evolving", scale=0.4, workers=2, background=False, stream=True
            )
            service.result(root)
            updated = service.update(root, evolving.deltas[0], background=False)
            service.result(updated)
            assert service.store.get_run(updated).workers == 2
            # An explicit override still wins and is recorded.
            second = service.update(
                updated, evolving.deltas[1], workers=1, background=False
            )
            service.result(second)
            assert service.store.get_run(second).workers == 1

    def test_cold_update_from_every_step_equals_warm(self, warm_lineage, tmp_path):
        """A cold service rebuilds any parent state with one prepare.

        The warm service held every parent state in memory.  A fresh
        service (on a copy of the store) holds none:
        updating from any step folds the recorded deltas into the root's
        KBs, prepares the folded pair once and lands on the warm result.
        """
        run_ids, warm = warm_lineage.run_ids, warm_lineage.warm
        for step, delta in enumerate(warm_lineage.deltas):
            copy = tmp_path / f"cold-{step}.db"
            shutil.copyfile(warm_lineage.path, copy)
            with MatchingService(str(copy)) as cold:
                run_id = cold.update(run_ids[step], delta, background=False)
                assert result_to_doc(cold.result(run_id)) == warm[step + 1]
                assert (cold.cache_hits, cold.cache_misses) == (0, 1)
                counters = cold.store.load_run_obs(run_id)["metrics"]["counters"]
            assert counters["prepared.cache.misses"] == 1
            assert "prepared.cache.hits" not in counters

    @staticmethod
    def _cold_update_after_edit(warm_lineage, tmp_path, sql, params, step):
        """Edit a copy of the warm store, then update from ``step`` cold."""
        copy = tmp_path / "edited.db"
        shutil.copyfile(warm_lineage.path, copy)
        with closing(sqlite3.connect(copy)) as conn, conn:
            assert conn.execute(sql, params).rowcount == 1
        with MatchingService(str(copy)) as cold:
            run_id = cold.update(
                warm_lineage.run_ids[step], warm_lineage.deltas[step], background=False
            )
            try:
                cold.result(run_id)
            finally:
                # Every guard fires before the rebuild's prepare.
                assert cold.cache_misses == 0

    def test_cold_rebuild_rejects_an_edited_delta(self, warm_lineage, tmp_path):
        """A recorded delta that no longer folds to its run's KB pair is refused."""
        run_ids, deltas = warm_lineage.run_ids, warm_lineage.deltas
        # run_ids[2] applied deltas[1]; later runs keep it mid-lineage.
        extra = DeltaOp("add_entity", 1, "x:edited", value="edited entity")
        edited = KBDelta(ops=deltas[1].ops + (extra,), gold_add=deltas[1].gold_add)
        with pytest.raises(ValueError, match=f"run '{run_ids[2]}'"):
            self._cold_update_after_edit(
                warm_lineage,
                tmp_path,
                "UPDATE runs SET delta_json = ? WHERE run_id = ?",
                (json.dumps(edited.to_doc()), run_ids[2]),
                step=2,
            )

    def test_cold_rebuild_rejects_a_parent_without_fingerprint(
        self, warm_lineage, tmp_path
    ):
        run_ids = warm_lineage.run_ids
        with pytest.raises(ValueError, match="predates the lineage migration"):
            self._cold_update_after_edit(
                warm_lineage,
                tmp_path,
                "UPDATE runs SET kb_fingerprint = NULL WHERE run_id = ?",
                (run_ids[2],),
                step=2,
            )

    def test_cold_rebuild_rejects_a_run_without_recorded_delta(
        self, warm_lineage, tmp_path
    ):
        run_ids = warm_lineage.run_ids
        with pytest.raises(ValueError, match=f"'{run_ids[1]}' has no recorded delta"):
            self._cold_update_after_edit(
                warm_lineage,
                tmp_path,
                "UPDATE runs SET delta_json = NULL WHERE run_id = ?",
                (run_ids[1],),
                step=2,
            )


    def test_warm_lineage_counts_every_parent_hit(self, warm_lineage):
        """Every warm update finds its parent's state and records in memory.

        The root's prepare is the one miss.  Each update then hits: the
        first on the root's state, the rest on post-delta states.  No
        update loads its parent's unit rows from the store.
        """
        assert warm_lineage.cache == (len(warm_lineage.deltas), 1)
        assert warm_lineage.unit_loads == []
        with RunStore(warm_lineage.path) as store:
            for run_id in warm_lineage.run_ids[1:]:
                counters = store.load_run_obs(run_id)["metrics"]["counters"]
                assert counters["prepared.cache.hits"] == 1
                assert "prepared.cache.misses" not in counters

    def test_warm_lineage_carries_the_scorer_over(self, warm_lineage):
        """The root creates the literal scorer; every update reuses it.

        An update splices inside its parent's arena, whose scorer the
        parent's own splice (or the root's prepare) left behind.
        """
        with RunStore(warm_lineage.path) as store:
            counters = [
                store.load_run_obs(run_id)["metrics"]["counters"]
                for run_id in warm_lineage.run_ids
            ]
        assert counters[0]["substrate.scorer.created"] == 1
        for update in counters[1:]:
            assert update["substrate.scorer.reused"] >= 1
            assert "substrate.scorer.created" not in update

    def test_unit_rows_are_payloads_for_executed_units_only(self, warm_lineage):
        """A run writes the payloads of what it executed and references the rest.

        Every reference names the run that executed the unit, and that
        run's row for the unit holds the payload, so references never
        chain.
        """
        with closing(sqlite3.connect(warm_lineage.path)) as conn:
            rows = conn.execute(
                "SELECT run_id, unit_key, payload, origin_run_id FROM stream_units"
            ).fetchall()
        table = {(run_id, key): (payload, origin) for run_id, key, payload, origin in rows}
        run_ids, executed = warm_lineage.run_ids, warm_lineage.executed
        references = 0
        for step, run_id in enumerate(run_ids):
            mine = {key: row for (run, key), row in table.items() if run == run_id}
            assert set(mine) == set(warm_lineage.records[step])
            written = {key for key, (_, origin) in mine.items() if origin is None}
            assert written == executed[step]
            assert "isolated\x1f0" in written
            for key, (payload, origin) in mine.items():
                if origin is None:
                    assert payload
                    continue
                references += 1
                assert payload == ""
                assert origin == warm_lineage.records[step][key]["origin"]
                assert key in executed[run_ids.index(origin)]
                assert run_ids.index(origin) < step
                origin_payload, origin_origin = table[(origin, key)]
                assert origin_origin is None and origin_payload
        assert references > len(run_ids)

    def test_cold_load_equals_the_warm_records(self, warm_lineage, tmp_path):
        """A fresh service reads each run's records as the warm one held them."""
        copy = tmp_path / "cold.db"
        shutil.copyfile(warm_lineage.path, copy)
        with MatchingService(str(copy)) as cold:
            for run_id, records in zip(warm_lineage.run_ids, warm_lineage.records):
                assert cold.store.load_unit_record_docs(run_id) == records

    def test_a_stream_result_is_stored_as_its_unit_keys(self, warm_lineage, tmp_path):
        """Each stream run's ledger row holds its unit keys in shard order.

        ``get_result`` merges the units' results back in that order to
        the result the run returned, both in the serving service and in
        a fresh one on a copy of the store.  In this lineage some units
        with loop history run in an order their keys do not sort to, so
        a merge in any other order shows in the history.
        """
        run_ids, warm = warm_lineage.run_ids, warm_lineage.warm
        with_history = [
            [key for key, doc in records.items() if doc["result"]["history"]]
            for records in warm_lineage.records
        ]
        assert any(order != sorted(order) for order in with_history)
        assert warm_lineage.stored == warm
        with closing(sqlite3.connect(warm_lineage.path)) as conn:
            stored = dict(conn.execute("SELECT run_id, result_json FROM runs"))
        for run_id, records in zip(run_ids, warm_lineage.records):
            assert json.loads(stored[run_id]) == {"units": list(records)}
        copy = tmp_path / "cold.db"
        shutil.copyfile(warm_lineage.path, copy)
        with MatchingService(str(copy)) as cold:
            for run_id, doc in zip(run_ids, warm):
                assert result_to_doc(cold.store.get_result(run_id)) == doc
                assert result_to_doc(cold.result(run_id)) == doc

    def test_a_run_holding_its_full_result_reads_and_updates(
        self, warm_lineage, tmp_path
    ):
        """A stream run whose ledger row holds the result document still works.

        Stores written before stream results were stored as unit keys
        hold the whole document, next to the same unit and reference
        rows.  ``get_result`` reads such a row as written, and an update
        from it in a fresh service lands on the from-scratch result of
        the post-delta KB pair.
        """
        from repro.datasets import evolving_bundle
        from repro.partition import CrowdSpec
        from repro.stream import StreamRunner

        step = 1
        run_id, full = warm_lineage.run_ids[step], warm_lineage.warm[step]
        copy = tmp_path / "full.db"
        shutil.copyfile(warm_lineage.path, copy)
        with closing(sqlite3.connect(copy)) as conn, conn:
            conn.execute(
                "UPDATE runs SET result_json = ? WHERE run_id = ?",
                (json.dumps(full, sort_keys=True), run_id),
            )
        with MatchingService(str(copy)) as cold:
            assert result_to_doc(cold.store.get_result(run_id)) == full
            child = cold.update(run_id, warm_lineage.deltas[step], background=False)
            updated = result_to_doc(cold.result(child))
        bundle = evolving_bundle(seed=0, scale=0.4, steps=9).bundle_at(step + 1)
        state = Remp(RempConfig()).prepare(bundle.kb1, bundle.kb2)
        scratch = StreamRunner(RempConfig(), seed=0).run_full(
            state, CrowdSpec(truth=bundle.gold_matches, error_rate=0.1, seed=0)
        )
        assert updated == result_to_doc(scratch.result)

    def test_store_with_full_payload_rows_upgrades_cleanly(
        self, warm_lineage, tmp_path, capsys
    ):
        """A store whose every unit row holds its payload opens, reads and updates.

        Stores written before references have no ``origin_run_id`` column
        and a full payload in every run's row for every unit, and like
        every store an earlier release wrote, ``user_version`` 0.  Opening one
        adds the column and rewrites no row, every row reads as its own
        origin, ``runs show`` counts the same units (all written), and an
        update from it in a fresh service lands on the warm result.
        """
        from repro.cli import main

        run_ids = warm_lineage.run_ids
        copy = tmp_path / "legacy.db"
        shutil.copyfile(warm_lineage.path, copy)
        with RunStore(copy) as store:
            docs = {run_id: store.load_unit_record_docs(run_id) for run_id in run_ids}
        with closing(sqlite3.connect(copy)) as conn, conn:
            conn.executescript(
                """
                DROP TABLE stream_units;
                CREATE TABLE stream_units (
                    run_id TEXT NOT NULL, unit_key TEXT NOT NULL,
                    payload TEXT NOT NULL, updated_at TEXT NOT NULL,
                    PRIMARY KEY (run_id, unit_key));
                PRAGMA user_version = 0;
                """
            )
            conn.executemany(
                "INSERT INTO stream_units VALUES (?, ?, ?, '2026-01-01')",
                [
                    (run_id, key, json.dumps(
                        {name: value for name, value in doc.items() if name != "origin"},
                        sort_keys=True,
                    ))
                    for run_id, units in docs.items()
                    for key, doc in units.items()
                ],
            )
        read_rows = "SELECT * FROM stream_units ORDER BY run_id, unit_key"
        with closing(sqlite3.connect(copy)) as conn:
            legacy = conn.execute(read_rows).fetchall()

        with RunStore(copy) as store:
            for run_id in run_ids:
                assert store.load_unit_record_docs(run_id) == {
                    key: {**doc, "origin": run_id} for key, doc in docs[run_id].items()
                }
        last = warm_lineage.records[-1]
        reusable = sum(1 for doc in last.values() if doc["kind"] == "graph")
        assert main(["runs", "show", run_ids[-1], "--store", str(copy)]) == 0
        assert (
            f"stream units: {len(last)} recorded ({reusable} reusable; "
            f"{len(last)} written, 0 by reference)"
        ) in capsys.readouterr().out

        with MatchingService(str(copy)) as cold:
            run_id = cold.update(run_ids[-2], warm_lineage.deltas[-1], background=False)
            assert result_to_doc(cold.result(run_id)) == warm_lineage.warm[-1]
            outcome = cold.stream_outcome(run_id)
        with closing(sqlite3.connect(copy)) as conn:
            columns = [row[1] for row in conn.execute("PRAGMA table_info(stream_units)")]
            assert "origin_run_id" in columns
            before = conn.execute(
                "SELECT * FROM stream_units WHERE run_id != ? ORDER BY run_id, unit_key",
                (run_id,),
            ).fetchall()
            origins = dict(
                conn.execute(
                    "SELECT unit_key, origin_run_id FROM stream_units WHERE run_id = ?",
                    (run_id,),
                ).fetchall()
            )
        assert before == [(*row, None) for row in legacy]
        assert outcome.reused_keys
        assert origins == {
            key: run_ids[-2] if key in outcome.reused_keys else None
            for key in outcome.records
        }

class TestTimingIsolation:
    def test_concurrent_timings_do_not_contaminate_run(self, tmp_path):
        """Another session's stage timings never leak into a run's doc.

        A thread timing its own stages under its own run scope, while the
        run executes, must not contaminate the run's persisted stages.
        """
        stop = threading.Event()

        def poison():
            with obs.RunScope("poison", trace=False).activate():
                while not stop.is_set():
                    with obs.timed("poison.stage"):
                        pass

        thread = threading.Thread(target=poison, daemon=True)
        thread.start()
        try:
            with MatchingService(RunStore(tmp_path / "store.db")) as service:
                run_id = service.submit("iimb", scale=0.2, background=False)
                service.result(run_id)
                stages = service.store.load_run_timings(run_id)["stages"]
        finally:
            stop.set()
            thread.join()
        assert "poison.stage" not in stages
        assert stages, "real stages should still be attributed"
