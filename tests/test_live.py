"""Live telemetry plane: scope-written run_events, watch/top, CLI tailing."""

import json
import threading

import pytest

from repro import faults
from repro.cli import main
from repro.obs import RunScope
from repro.obs.live import RunWatch, render_top
from repro.service import MatchingService
from repro.store import RunStore
from repro.store.serialize import result_to_doc


def _fail_event_writes(monkeypatch, times=None):
    """A plan failing ``append_run_event`` writes, with no write retries."""
    monkeypatch.setenv("REPRO_STORE_WRITE_RETRIES", "0")
    return faults.FaultPlan(
        [
            faults.FaultRule(
                "store.write", where={"op": "append_run_event"}, times=times
            )
        ]
    )


class TestRunEventsStore:
    def test_append_tail_last_count_clear(self, tmp_path):
        store = RunStore(tmp_path / "s.db")
        run_id = store.create_run("iimb", 0, 0.2, None)
        first = store.append_run_event(run_id, "status.running")
        store.append_run_event(
            run_id, "shard.finished", {"questions": 3}, shard_id=1
        )
        events = store.tail_run_events(run_id)
        assert [e["kind"] for e in events] == ["status.running", "shard.finished"]
        assert events[1]["shard_id"] == 1 and events[1]["questions"] == 3
        assert all(e["ts"] > 0 for e in events)
        # Tailing is by sequence: only events after the cursor come back.
        tail = store.tail_run_events(run_id, after_seq=first)
        assert [e["kind"] for e in tail] == ["shard.finished"]
        assert store.tail_run_events(run_id, after_seq=tail[-1]["seq"]) == []
        store.close()

    def test_active_runs_excludes_finished(self, tmp_path):
        store = RunStore(tmp_path / "s.db")
        live = store.create_run("iimb", 0, 0.2, None)
        done = store.create_run("iimb", 1, 0.2, None)
        store.update_run_status(done, "failed")
        assert [r.run_id for r in store.active_runs()] == [live]
        store.close()


class TestScopeEvents:
    def test_scope_writes_only_its_own_run(self, tmp_path):
        store = RunStore(tmp_path / "s.db")
        run_id = store.create_run("iimb", 0, 0.2, None)
        other = store.create_run("iimb", 1, 0.2, None)
        RunScope(run_id, store=store).publish("status.running")
        RunScope(other, store=store).publish("status.done")
        RunScope(run_id).publish("status.failed")  # no store: dropped
        events = store.tail_run_events(run_id)
        assert [e["kind"] for e in events] == ["status.running"]
        assert events[0]["ts"] > 0
        assert [e["kind"] for e in store.tail_run_events(other)] == ["status.done"]
        store.close()

    def test_column_fields_split_from_payload(self, tmp_path):
        store = RunStore(tmp_path / "s.db")
        run_id = store.create_run("iimb", 0, 0.2, None)
        scope = RunScope(run_id, shard_id=2, stream_step=1, store=store)
        scope.publish("shard.checkpointed", loops=4)
        (event,) = store.tail_run_events(run_id)
        assert event["shard_id"] == 2
        assert event["stream_step"] == 1
        assert event["loops"] == 4
        assert "run_id" not in event  # implied by the query
        store.close()

    def test_failing_write_is_dropped_not_raised(self, tmp_path, monkeypatch):
        plan = _fail_event_writes(monkeypatch, times=1)
        store = RunStore(tmp_path / "s.db")
        run_id = store.create_run("iimb", 0, 0.2, None)
        scope = RunScope(run_id, store=store)
        with scope.activate(), faults.activate(plan):
            scope.publish("status.preparing")  # must not raise
            scope.publish("status.running")
        assert plan.fired() == 1
        # The fault's own event, raised inside the failing write, is
        # dropped too; the next event lands.
        assert [e["kind"] for e in store.tail_run_events(run_id)] == [
            "status.running"
        ]
        assert scope.metrics.counter("fault.injected") == 1
        store.close()


class TestRunWatch:
    def _feed(self, watch, events):
        return watch.feed(
            [dict(event, seq=i + 1) for i, event in enumerate(events)]
        )

    def test_folds_status_loop_and_stream(self):
        watch = RunWatch()
        changed = self._feed(
            watch,
            [
                {"kind": "status.running"},
                {"kind": "loop.checkpointed", "loops": 2, "questions": 9},
                {"kind": "stream.summary", "units": 5, "reused": 3},
            ],
        )
        assert changed
        assert watch.status == "running"
        assert watch.questions == 9
        assert watch.last_seq == 3
        assert not watch.feed([])
        frame = watch.render()
        assert "loop 2" in frame and "9 questions" in frame
        assert "units=5 reused=3" in frame

    def test_shard_progress_is_monotone(self):
        watch = RunWatch()
        self._feed(
            watch,
            [
                {"kind": "shard.started", "shard_id": 0, "phase": "graph"},
                {
                    "kind": "shard.checkpointed",
                    "shard_id": 0,
                    "questions": 5,
                    "loops": 2,
                },
                # A stale (lower) count must not move progress backwards.
                {"kind": "shard.checkpointed", "shard_id": 0, "questions": 3},
                {
                    "kind": "shard.finished",
                    "shard_id": 0,
                    "questions": 5,
                    "matches": 4,
                },
            ],
        )
        shard = watch.shards[0]
        assert shard["state"] == "finished"
        assert shard["questions"] == 5
        assert shard["matches"] == 4
        assert watch.questions == 5
        frame = watch.render()
        assert "shard   0" in frame and "matches=4" in frame
        assert "shards 1/1 done" in frame

    def test_render_top_table(self, tmp_path):
        store = RunStore(tmp_path / "s.db")
        run_id = store.create_run("iimb", 0, 0.2, None)
        record = store.get_run(run_id)
        assert render_top([]) == "no runs in flight"
        watch = RunWatch()
        assert "  -" in render_top([(record, watch)])
        self._feed(
            watch, [{"kind": "shard.checkpointed", "shard_id": 1, "questions": 7}]
        )
        table = render_top([(record, watch)])
        assert run_id[:12] in table
        assert "shard.checkpointed (shard 1)" in table
        assert " 7 " in table
        store.close()


class TestLiveRunEvents:
    """Execution paths persist their progress through the shared store."""

    def test_monolithic_run_emits_lifecycle_events(self, tmp_path):
        with MatchingService(RunStore(tmp_path / "s.db")) as service:
            run_id = service.submit("iimb", scale=0.2, background=False)
            result = service.result(run_id)
            events = service.store.tail_run_events(run_id)
        kinds = [e["kind"] for e in events]
        assert kinds[0] == "status.preparing"
        assert "status.running" in kinds
        assert kinds[-1] == "status.done"
        assert "loop.checkpointed" in kinds
        watch = RunWatch()
        watch.feed(events)
        assert watch.status == "done"
        assert watch.questions == result.questions_asked

    def test_partitioned_run_emits_per_shard_heartbeats(self, tmp_path):
        with MatchingService(RunStore(tmp_path / "s.db")) as service:
            run_id = service.submit("iimb", scale=0.2, workers=2, background=False)
            result = service.result(run_id)
            events = service.store.tail_run_events(run_id)
        kinds = {e["kind"] for e in events}
        assert "shard.started" in kinds and "shard.finished" in kinds
        watch = RunWatch()
        watch.feed(events)
        assert watch.shards
        assert all(s["state"] == "finished" for s in watch.shards.values())
        assert watch.questions == result.questions_asked

    def test_stream_update_logs_reuse_on_the_summary(self, tmp_path):
        """Reused units log no shard rows; the watch still totals the run."""
        from repro.datasets import evolving_bundle

        delta = evolving_bundle(seed=0, scale=0.4, steps=1).deltas[0]
        with MatchingService(str(tmp_path / "s.db")) as service:
            root = service.submit("evolving", scale=0.4, background=False, stream=True)
            service.result(root)
            run_id = service.update(root, delta, background=False)
            result = service.result(run_id)
            outcome = service.stream_outcome(run_id)
            events = service.store.tail_run_events(run_id)
        watch = RunWatch()
        watch.feed(events)
        assert outcome.reused_keys
        assert len(watch.shards) == len(outcome.executed_keys)
        assert watch.stream["reused"] == len(outcome.reused_keys)
        assert watch.questions == result.questions_asked

    def test_second_connection_tails_inflight_run(self, tmp_path):
        """A separate store handle on the same SQLite file sees progress
        while the run is still executing — the ``repro runs watch``
        contract, minus the subprocess."""
        path = tmp_path / "s.db"
        service = MatchingService(RunStore(path))
        try:
            run_id = service.submit("iimb", scale=0.2, workers=2, background=True)
            watch = RunWatch()
            tailer = RunStore(path)
            try:
                done = threading.Event()

                def wait():
                    service.result(run_id)
                    done.set()

                waiter = threading.Thread(target=wait)
                waiter.start()
                while not done.is_set():
                    watch.feed(tailer.tail_run_events(run_id, watch.last_seq))
                    done.wait(0.01)
                waiter.join()
                watch.feed(tailer.tail_run_events(run_id, watch.last_seq))
            finally:
                tailer.close()
            result = service.result(run_id)
        finally:
            service.close()
        assert watch.status == "done"
        assert watch.shards
        assert watch.questions == result.questions_asked


class _Die(Exception):
    pass


class TestKillAndResumeConsistency:
    """The satellite invariant: a killed ``--workers 4`` run under
    ``REPRO_NO_TRACE=1`` keeps its events table consistent, and after
    resume the cost ledger total equals the result's question count."""

    def test_events_and_ledger_survive_kill(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_NO_TRACE", "1")
        path = tmp_path / "s.db"
        seen = []

        def killer(event):
            seen.append(event)
            if sum(1 for e in seen if e.kind == "finished") == 1:
                raise _Die

        with MatchingService(RunStore(path)) as service:
            run_id = service.submit(
                "iimb", scale=0.2, workers=4, background=False, on_event=killer
            )
            with pytest.raises(_Die):
                service.result(run_id)
            assert service.store.get_run(run_id).status == "failed"
            events = service.store.tail_run_events(run_id)
            kinds = [e["kind"] for e in events]
            assert kinds[-1] == "status.failed"
            assert "shard.finished" in kinds

        # A fresh service simulates a process restart.
        with MatchingService(RunStore(path)) as service:
            service.resume(run_id, background=False)
            result = service.result(run_id)
            assert service.store.get_run(run_id).status == "done"
            events = service.store.tail_run_events(run_id)
            obs_doc = service.store.load_run_obs(run_id)

        kinds = [e["kind"] for e in events]
        assert kinds[-1] == "status.done"
        # Sequence numbers stay strictly increasing across the restart.
        seqs = [e["seq"] for e in events]
        assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)
        # Untraced runs still stream progress events (operational plane).
        assert obs_doc["trace"] == []
        ledger = obs_doc["cost_ledger"]
        assert ledger["total"] == result.questions_asked
        assert sum(i["questions"] for i in ledger["items"]) == ledger["total"]
        watch = RunWatch()
        watch.feed(events)
        assert watch.status == "done"
        assert watch.questions == result.questions_asked


class TestWatchAndTopCLI:
    def _finished_run(self, tmp_path, monkeypatch, **kwargs):
        path = tmp_path / "s.db"
        monkeypatch.setenv("REPRO_STORE", str(path))
        with MatchingService(RunStore(path)) as service:
            run_id = service.submit("iimb", scale=0.2, background=False, **kwargs)
            result = service.result(run_id)
        return run_id, result

    def test_runs_watch_renders_finished_run(self, tmp_path, monkeypatch, capsys):
        run_id, result = self._finished_run(tmp_path, monkeypatch, workers=2)
        assert main(["runs", "watch", run_id]) == 0
        out = capsys.readouterr().out
        assert f"run {run_id}" in out
        assert "done" in out
        assert "shard" in out
        assert f"questions {result.questions_asked}" in out
        assert "stages:" in out

    def test_runs_watch_once_flag(self, tmp_path, monkeypatch, capsys):
        run_id, _ = self._finished_run(tmp_path, monkeypatch)
        assert main(["runs", "watch", run_id, "--once"]) == 0
        assert run_id in capsys.readouterr().out

    def test_runs_watch_unknown_run(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_STORE", str(tmp_path / "s.db"))
        with RunStore(tmp_path / "s.db"):
            pass
        assert main(["runs", "watch", "nope"]) == 1
        assert "unknown run" in capsys.readouterr().err

    def test_top_lists_inflight_runs_only(self, tmp_path, monkeypatch, capsys):
        path = tmp_path / "s.db"
        monkeypatch.setenv("REPRO_STORE", str(path))
        with RunStore(path) as store:
            live = store.create_run("iimb", 0, 0.2, None)
            store.update_run_status(live, "running")
            store.append_run_event(
                live, "shard.checkpointed", {"questions": 4}, shard_id=0
            )
            done = store.create_run("iimb", 1, 0.2, None)
            store.update_run_status(done, "done")
        assert main(["top"]) == 0
        out = capsys.readouterr().out
        assert live[:12] in out
        assert done[:12] not in out
        assert "shard.checkpointed (shard 0)" in out

    def test_top_sums_shard_questions(self, tmp_path, monkeypatch, capsys):
        """The count is the run's, not the last shard event's."""
        path = tmp_path / "s.db"
        monkeypatch.setenv("REPRO_STORE", str(path))
        with RunStore(path) as store:
            live = store.create_run("iimb", 0, 0.2, None, workers=3)
            store.update_run_status(live, "running")
            for shard_id, questions in ((0, 3), (1, 4)):
                store.append_run_event(
                    live, "shard.checkpointed", {"questions": questions},
                    shard_id=shard_id,
                )
            store.append_run_event(live, "shard.started", shard_id=2)
        assert main(["top"]) == 0
        (row,) = [line for line in capsys.readouterr().out.splitlines()
                  if line.startswith(live[:12])]
        assert row.split()[4] == "7"
        assert row.endswith("shard.started (shard 2)")

    def test_top_empty_store(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_STORE", str(tmp_path / "s.db"))
        assert main(["top"]) == 0
        assert "no runs in flight" in capsys.readouterr().out


class TestProgressEventsAreWritePathPassive:
    def test_failing_event_writes_keep_result(
        self, tmp_path, monkeypatch
    ):
        """Event writes that all fail never perturb the result."""

        def run(path):
            with MatchingService(RunStore(path)) as service:
                run_id = service.submit(
                    "iimb", scale=0.2, workers=2, background=False
                )
                return service.result(run_id), len(
                    service.store.tail_run_events(run_id)
                )

        quiet, written = run(tmp_path / "quiet.db")
        plan = _fail_event_writes(monkeypatch)
        with faults.activate(plan):
            noisy, dropped = run(tmp_path / "noisy.db")
        assert written and dropped == 0
        assert plan.fired() >= written  # every event write really failed
        assert json.dumps(result_to_doc(noisy), sort_keys=True) == json.dumps(
            result_to_doc(quiet), sort_keys=True
        )
