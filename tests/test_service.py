"""Tests for the concurrent matching service."""

import threading

import pytest

from repro.core import Remp, RempConfig
from repro.crowd import CrowdPlatform
from repro.service import MatchingService
from repro.store import RunStore
from repro.store.serialize import checkpoint_to_doc, result_to_doc


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

    def test_store_cache_survives_new_service(self, tmp_path):
        path = tmp_path / "store.db"
        with MatchingService(RunStore(path)) as service:
            first = service.prepared("iimb", scale=0.2)
        with MatchingService(RunStore(path)) as service:
            second = service.prepared("iimb", scale=0.2)
            assert service.cache_misses == 0
            assert service.cache_hits == 1
        assert second.retained == first.retained
        assert second.priors == first.priors

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
            assert service.status(run_id) == "done"

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


class TestStreamSessions:
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


class TestTimingIsolation:
    def test_concurrent_timings_do_not_contaminate_run(self, tmp_path):
        """Another session's kernel timings never leak into a run's doc.

        Before run-scoped timing, ``TIMINGS`` was snapshot/diffed around
        the run, so any concurrent session writing to the global registry
        contaminated the persisted per-run stages.
        """
        from repro.accel.runtime import TIMINGS

        stop = threading.Event()

        def poison():
            while not stop.is_set():
                TIMINGS.add("poison.stage", 1.0)

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
