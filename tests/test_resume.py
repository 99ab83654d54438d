"""Checkpoint/resume: interrupted runs continue without re-asking questions."""

import pytest

from repro.core import Remp
from repro.crowd import CrowdPlatform


@pytest.fixture(scope="module")
def bundle(bundle_iimb_04):
    return bundle_iimb_04


def _platform(bundle):
    return CrowdPlatform.with_simulated_workers(
        bundle.gold_matches, num_workers=30, error_rate=0.1, seed=7
    )


class _Killed(Exception):
    pass


def _run_killed_after(bundle, loops: int):
    """Run until ``loops`` checkpoints were taken, then die mid-run."""
    checkpoints = []

    def sink(checkpoint):
        checkpoints.append(checkpoint)
        if len(checkpoints) == loops:
            raise _Killed

    platform = _platform(bundle)
    with pytest.raises(_Killed):
        Remp().run(bundle.kb1, bundle.kb2, platform, on_checkpoint=sink)
    return checkpoints[-1]


class TestAnswerLogReplay:
    def test_labels_independent_of_ask_order(self, bundle):
        questions = sorted(bundle.gold_matches)[:6]
        first = _platform(bundle)
        second = _platform(bundle)
        for question in questions:
            first.ask(question)
        for question in reversed(questions):
            second.ask(question)
        for question in questions:
            assert first.ask(question) == second.ask(question)

    def test_export_load_round_trip(self, bundle):
        platform = _platform(bundle)
        questions = sorted(bundle.gold_matches)[:4]
        originals = {q: platform.ask(q) for q in questions}
        log = platform.export_answer_log()

        replayed = _platform(bundle)
        replayed.load_answer_log(log)
        for question in questions:
            assert replayed.ask(question) == originals[question]
        # Replayed questions are never billed.
        assert replayed.questions_asked == 0

    def test_answer_log_property_view(self, bundle):
        platform = _platform(bundle)
        question = sorted(bundle.gold_matches)[0]
        platform.ask(question)
        assert question in platform.answer_log
        assert len(platform.answer_log[question]) == 5


class TestKillAndResume:
    @pytest.fixture(scope="class")
    def baseline(self, bundle):
        return Remp().run(bundle.kb1, bundle.kb2, _platform(bundle))

    def test_checkpoints_are_emitted(self, bundle, baseline):
        seen = []
        platform = _platform(bundle)
        Remp().run(bundle.kb1, bundle.kb2, platform, on_checkpoint=seen.append)
        assert len(seen) == baseline.num_loops
        # Loop-phase billing never exceeds the final count (isolated-pair
        # seeding may add questions after the last checkpoint).
        assert seen[-1].questions_asked <= baseline.questions_asked
        assert [c.next_loop_index for c in seen] == list(range(1, len(seen) + 1))

    def test_resume_conserves_result_and_questions(self, bundle, baseline):
        checkpoint = _run_killed_after(bundle, loops=2)

        platform = _platform(bundle)
        platform.load_answer_log(checkpoint.answer_log)
        resumed = Remp().run(
            bundle.kb1, bundle.kb2, platform, resume_from=checkpoint
        )
        assert resumed.matches == baseline.matches
        assert resumed.questions_asked == baseline.questions_asked
        assert resumed.num_loops == baseline.num_loops
        assert [r.questions for r in resumed.history] == [
            r.questions for r in baseline.history
        ]

    def test_resume_asks_no_duplicate_questions(self, bundle, baseline):
        checkpoint = _run_killed_after(bundle, loops=2)
        replayed = {tuple(entry["question"]) for entry in checkpoint.answer_log}

        platform = _platform(bundle)
        platform.load_answer_log(checkpoint.answer_log)
        resumed = Remp().run(
            bundle.kb1, bundle.kb2, platform, resume_from=checkpoint
        )
        # The resumed platform only billed questions the first run never asked.
        assert platform.questions_asked == resumed.questions_asked - len(replayed)
        billed = set(platform.answer_log) - replayed
        assert not billed & replayed

    def test_resume_from_final_checkpoint_skips_loops(self, bundle, baseline):
        seen = []
        platform = _platform(bundle)
        Remp().run(bundle.kb1, bundle.kb2, platform, on_checkpoint=seen.append)
        final = seen[-1]

        fresh = _platform(bundle)
        fresh.load_answer_log(final.answer_log)
        resumed = Remp().run(bundle.kb1, bundle.kb2, fresh, resume_from=final)
        assert resumed.matches == baseline.matches
        assert resumed.num_loops == baseline.num_loops


class TestBillingInvariant:
    def test_result_counts_match_platform_billing(self, bundle):
        platform = _platform(bundle)
        result = Remp().run(bundle.kb1, bundle.kb2, platform)
        assert result.questions_asked == platform.questions_asked


class TestStreamUpdateResume:
    """Kill-and-resume for mid-delta ``update()`` runs (repro.stream)."""

    SCALE = 0.75
    ERROR_RATE = 0.1

    @pytest.fixture(scope="class")
    def evolving(self):
        from repro.datasets import evolving_bundle

        return evolving_bundle(seed=0, scale=self.SCALE, steps=2)

    @staticmethod
    def _summary(service, run_id) -> dict:
        """What a resumed update must reproduce of the uninterrupted one."""
        from repro.store.serialize import result_to_doc

        result = service.result(run_id)
        outcome = service.stream_outcome(run_id)
        ledger = service.store.load_run_obs(run_id)["cost_ledger"]
        return {
            "result": result_to_doc(result),
            "reused_keys": outcome.reused_keys,
            "executed_keys": outcome.executed_keys,
            "questions_new": outcome.questions_new,
            "ledger_reused": {item["key"]: item["reused"] for item in ledger["items"]},
        }

    def _root(self, service) -> str:
        root = service.submit(
            "evolving",
            scale=self.SCALE,
            error_rate=self.ERROR_RATE,
            background=False,
            stream=True,
        )
        service.result(root)
        return root

    @pytest.fixture(scope="class")
    def reference(self, evolving, tmp_path_factory):
        """The uninterrupted root + both updates, summarized per step."""
        from repro.service import MatchingService

        path = tmp_path_factory.mktemp("stream-ref") / "ref.db"
        steps = {}
        with MatchingService(str(path)) as service:
            run_id = self._root(service)
            for step, delta in enumerate(evolving.deltas, start=1):
                run_id = service.update(run_id, delta, background=False)
                steps[step] = self._summary(service, run_id)
        # Each update reuses some units and executes others, so every
        # kill point below has an event to die on.
        assert all(s["reused_keys"] and s["executed_keys"] for s in steps.values())
        return steps

    def _interrupted_store(self, evolving, tmp_path, kill_on: str, step: int = 1):
        """Run root + updates up to ``step``, dying at its first ``kill_on`` event."""
        from repro.service import MatchingService

        class _Die(Exception):
            pass

        seen = []

        def killer(event):
            seen.append(event)
            if event.kind == kill_on and sum(
                1 for e in seen if e.kind == kill_on
            ) == 1:
                raise _Die

        path = tmp_path / "interrupted.db"
        with MatchingService(str(path)) as service:
            run_id = self._root(service)
            for delta in evolving.deltas[: step - 1]:
                run_id = service.update(run_id, delta, background=False)
                service.result(run_id)
            run_id = service.update(
                run_id, evolving.deltas[step - 1], background=False, on_event=killer
            )
            with pytest.raises(_Die):
                service.result(run_id)
            assert service.store.get_run(run_id).status == "failed"
        return path, run_id

    def _resume(self, path, run_id):
        """Resume in a fresh service, as after a process restart."""
        from repro.service import MatchingService

        with MatchingService(str(path)) as service:
            service.resume(run_id, background=False)
            service.result(run_id)
            assert service.store.get_run(run_id).status == "done"
            counters = service.store.load_run_obs(run_id)["metrics"]["counters"]
            return self._summary(service, run_id), counters

    @pytest.mark.parametrize("kill_on", ["restored", "checkpointed", "finished"])
    def test_resume_converges_to_uninterrupted_result(
        self, evolving, reference, tmp_path, kill_on
    ):
        """Kills during reuse, mid-loop and between units resume exactly.

        Exactly means the result document and the reuse accounting: the
        reused and executed unit keys, the new crowd spend and the cost
        ledger's ``reused`` flags all equal the uninterrupted update's.
        """
        path, run_id = self._interrupted_store(evolving, tmp_path, kill_on)
        resumed, _ = self._resume(path, run_id)
        assert resumed == reference[1]

    def test_resume_in_the_same_service_reads_the_parent_records_from_memory(
        self, evolving, reference, tmp_path
    ):
        """A resume in the service that ran the parent loads no unit rows.

        The update dies as its isolated unit starts, after its graph unit
        finished.  The resumed update reuses the parent's in-memory
        records and restores that graph unit from its own shard row.  It
        lands on the uninterrupted update, and its payload rows are
        exactly the units it executed.
        """
        from repro.service import MatchingService

        class _Die(Exception):
            pass

        def killer(event):
            if event.kind == "started" and event.phase == "isolated":
                raise _Die

        with MatchingService(str(tmp_path / "warm.db")) as service:
            root = self._root(service)
            run_id = service.update(
                root, evolving.deltas[0], background=False, on_event=killer
            )
            with pytest.raises(_Die):
                service.result(run_id)
            units, journals = service.store.load_shard_records(run_id)
            assert len(units) == 1 and journals == {}
            loads = []
            load = service.store.load_unit_record_docs

            def counted_load(run_id):
                loads.append(run_id)
                return load(run_id)

            service.store.load_unit_record_docs = counted_load
            service.resume(run_id, background=False)
            resumed = self._summary(service, run_id)
            written = {
                key
                for key, doc in load(run_id).items()
                if doc["origin"] == run_id
            }
        assert loads == []
        assert resumed == reference[1]
        assert written == reference[1]["executed_keys"]

    def test_resume_at_step_two_replays_the_parent_state(
        self, evolving, reference, tmp_path
    ):
        """A cold resume rebuilds step 1's post-delta state with one prepare."""
        path, run_id = self._interrupted_store(evolving, tmp_path, "finished", step=2)
        resumed, counters = self._resume(path, run_id)
        assert counters["prepared.cache.misses"] == 1
        assert "prepared.cache.hits" not in counters
        assert resumed == reference[2]

    def test_a_failed_finish_writes_no_references_and_resumes(
        self, evolving, reference, tmp_path
    ):
        """An update whose finish never commits fails with no reference rows.

        Every write attempt of its ``finish_run`` fails, so neither its
        result nor a reference row lands: its rows are the payloads of
        the units it executed.  A resume in a fresh service finishes it
        to the uninterrupted update, and then writes its references.
        """
        import sqlite3
        from contextlib import closing

        from repro import faults
        from repro.service import MatchingService

        plan = faults.FaultPlan(
            [faults.FaultRule("store.write", times=None, where={"op": "finish_run"})]
        )
        path = tmp_path / "finish.db"
        with MatchingService(str(path)) as service:
            root = self._root(service)
            run_id = service.update(root, evolving.deltas[0], background=False)
            with faults.activate(plan), pytest.raises(faults.InjectedFault):
                service.result(run_id)
            assert service.store.get_run(run_id).status == "failed"
            assert service.store.get_result(run_id) is None
        read_origins = "SELECT unit_key, origin_run_id FROM stream_units WHERE run_id = ?"
        with closing(sqlite3.connect(path)) as conn:
            origins = dict(conn.execute(read_origins, (run_id,)).fetchall())
        assert set(origins) == reference[1]["executed_keys"]
        assert set(origins.values()) == {None}
        resumed, _ = self._resume(path, run_id)
        assert resumed == reference[1]
        with closing(sqlite3.connect(path)) as conn:
            origins = dict(conn.execute(read_origins, (run_id,)).fetchall())
        assert origins == {
            **{key: None for key in reference[1]["executed_keys"]},
            **{key: root for key in reference[1]["reused_keys"]},
        }
