"""Tests for the fault plane: plan model, probes, and supervised recovery.

The contract under test: faults fire only at explicit ``faults.check``
probes, deterministically; every recovery path (store write retry, crowd
retry, shard requeue, worker replenishment, quarantine, resume) ends in
a result *byte-identical* to the fault-free run — including the billed
``questions_asked`` — or in a structured :class:`PartialResult`.
"""

import json
import multiprocessing
import sqlite3
import time

import pytest

from repro import faults
from repro.core import RempConfig
from repro.core.pipeline import LoopCheckpoint, RempResult
from repro.crowd import CrowdPlatform, CrowdRetryPolicy, CrowdUnavailableError, Oracle
from repro.obs import RunScope
from repro.partition import CrowdSpec, ParallelRunner, PartialResult
from repro.store import RunStore
from repro.store.serialize import result_to_doc
from repro.stream import StreamRunner


def _doc(result) -> str:
    return json.dumps(result_to_doc(result), sort_keys=True)


@pytest.fixture(scope="module")
def bundle(clustered6_bundle):
    return clustered6_bundle


@pytest.fixture(scope="module")
def state(prepared_clustered6):
    return prepared_clustered6


@pytest.fixture(scope="module")
def crowd(bundle):
    return CrowdSpec(truth=bundle.gold_matches, error_rate=0.0, seed=0)


@pytest.fixture(scope="module")
def reference(state, crowd):
    """Fault-free workers=1 run plus per-shard checkpoint depth."""
    assert faults.current_plan() is None
    events = []
    result = ParallelRunner(workers=1, on_event=events.append).run(state, crowd)
    loops: dict[int, int] = {}
    for event in events:
        if event.kind == "checkpointed":
            loops[event.shard_id] = max(loops.get(event.shard_id, 0), event.loops)
    return result, loops


def _victim(loops: dict[int, int]) -> int:
    """The graph shard with the deepest checkpoint history."""
    shard_id = max(loops, key=loops.get)
    assert loops[shard_id] >= 1
    return shard_id


# ----------------------------------------------------------------------
# Plan model
# ----------------------------------------------------------------------
class TestFaultPlanModel:
    def test_rule_validation(self):
        with pytest.raises(ValueError):
            faults.FaultRule("store.write", action="explode")
        with pytest.raises(ValueError):
            faults.FaultRule("store.write", times=0)
        with pytest.raises(ValueError):
            faults.FaultRule("store.write", action="delay", delay=-1.0)
        with pytest.raises(ValueError):
            faults.FaultRule("store.write", action="corrupt")

    def test_times_budget_and_where_filters(self):
        plan = faults.FaultPlan(
            [faults.FaultRule("crowd.answer", times=2, where={"attempt": 0})]
        )
        assert plan.select("crowd.answer", {"attempt": 1}) is None
        assert plan.select("crowd.answer", {"attempt": 0}) is not None
        assert plan.select("crowd.answer", {"attempt": 0}) is not None
        assert plan.select("crowd.answer", {"attempt": 0}) is None  # budget spent
        assert plan.fired() == 2
        plan.reset()
        assert plan.fired() == 0
        assert plan.select("crowd.answer", {"attempt": 0}) is not None

    def test_where_missing_field_never_matches(self):
        rule = faults.FaultRule("store.write", where={"op": "create_run"})
        assert not rule.matches("store.write", {})
        assert rule.matches("store.write", {"op": "create_run", "attempt": 3})

    def test_fnmatch_site_pattern(self):
        plan = faults.FaultPlan([faults.FaultRule("worker.*", times=None)])
        assert plan.select("worker.start", {}) is not None
        assert plan.select("worker.mid_shard", {}) is not None
        assert plan.select("store.write", {}) is None

    def test_where_tuples_survive_json_round_trip(self):
        rule = faults.FaultRule("crowd.answer", where={"question": ("a", "b")})
        doc = json.loads(json.dumps(rule.to_doc()))
        revived = faults.FaultRule.from_doc(doc)
        # The probe supplies a tuple; the revived filter holds a JSON list.
        assert revived.matches("crowd.answer", {"question": ("a", "b")})
        assert not revived.matches("crowd.answer", {"question": ("a", "c")})

    def test_plan_round_trip_and_bare_list_shorthand(self):
        plan = faults.FaultPlan(
            [
                faults.FaultRule("store.write", times=None),
                faults.FaultRule("crowd.answer", action="delay", delay=0.5),
            ]
        )
        revived = faults.FaultPlan.from_doc(json.loads(json.dumps(plan.to_doc())))
        assert revived.to_doc() == plan.to_doc()
        bare = faults.FaultPlan.from_doc([{"site": "worker.start"}])
        assert bare.rules[0].site == "worker.start"
        assert bare.rules[0].action == "error"

    def test_parse_plan_json_and_file(self, tmp_path):
        text = json.dumps({"rules": [{"site": "store.write", "times": 3}]})
        assert faults.parse_plan(text).rules[0].times == 3
        path = tmp_path / "plan.json"
        path.write_text(text)
        assert faults.parse_plan(f"@{path}").rules[0].times == 3
        assert faults.parse_plan("  ").rules == []


class TestProbeRuntime:
    def test_no_plan_is_a_noop(self):
        assert faults.check("store.write", op="anything") is None

    def test_error_action_raises_and_counts(self):
        plan = faults.FaultPlan([faults.FaultRule("store.write")])
        scope = RunScope("run-f")
        with scope.activate(), faults.activate(plan):
            with pytest.raises(faults.InjectedFault):
                faults.check("store.write", op="save_checkpoint", attempt=0)
            assert faults.check("store.write", op="save_checkpoint") is None
        assert scope.metrics.counter("fault.injected") == 1
        assert scope.metrics.counter("fault.injected.store.write") == 1

    def test_delay_action_sleeps_and_reports(self):
        plan = faults.FaultPlan(
            [faults.FaultRule("crowd.answer", action="delay", delay=0.05)]
        )
        with faults.activate(plan):
            started = time.perf_counter()
            assert faults.check("crowd.answer") == "delay"
            assert time.perf_counter() - started >= 0.04

    def test_activation_precedence_and_disabled(self, monkeypatch):
        monkeypatch.setenv(
            faults.ENV_VAR, json.dumps([{"site": "store.write", "times": None}])
        )
        env_plan = faults.current_plan()
        assert env_plan is not None and env_plan.rules[0].site == "store.write"
        override = faults.FaultPlan([faults.FaultRule("crowd.answer")])
        with faults.activate(override):
            assert faults.current_plan() is override
            with faults.disabled():
                assert faults.current_plan() is None
                assert faults.check("crowd.answer") is None
            assert faults.current_plan() is override
        monkeypatch.delenv(faults.ENV_VAR)
        assert faults.current_plan() is None

    def test_injection_writes_run_event(self, tmp_path):
        with RunStore(tmp_path / "runs.db") as store:
            run_id = store.create_run("iimb", 0, 0.2, None)
            plan = faults.FaultPlan([faults.FaultRule("worker.mid_shard")])
            with RunScope(run_id, store=store).activate(), faults.activate(plan):
                with pytest.raises(faults.InjectedFault):
                    faults.check("worker.mid_shard", shard_id=7)
            (event,) = store.tail_run_events(run_id)
        assert event["kind"] == "fault.injected"
        assert event["site"] == "worker.mid_shard"
        assert event["action"] == "error"
        assert event["shard_id"] == 7


# ----------------------------------------------------------------------
# Store: write retry, busy timeout, legacy shard rows
# ----------------------------------------------------------------------
def _legacy_shard_store(tmp_path, *stubs: tuple[str, int]) -> str:
    """A store whose ``shard_checkpoints`` has the lease columns and stubs."""
    path = str(tmp_path / "legacy.db")
    legacy = sqlite3.connect(path)
    legacy.execute(
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
    legacy.executemany(
        "INSERT INTO shard_checkpoints VALUES "
        "(?, ?, 'lease', '{}', '2026-01-01', 'pid:1', 130.0, 100.0, 1)",
        stubs,
    )
    legacy.commit()
    legacy.close()
    return path


class TestStoreFaults:
    def test_busy_timeout_pragma(self, tmp_path, monkeypatch):
        with RunStore(tmp_path / "a.db") as store:
            row = store._conn.execute("PRAGMA busy_timeout").fetchone()
            assert row[0] == 5000
        monkeypatch.setenv("REPRO_SQLITE_BUSY_TIMEOUT_MS", "1234")
        with RunStore(tmp_path / "b.db") as store:
            row = store._conn.execute("PRAGMA busy_timeout").fetchone()
            assert row[0] == 1234

    def test_injected_write_failure_is_retried_once(self, tmp_path):
        plan = faults.FaultPlan(
            [faults.FaultRule("store.write", where={"attempt": 0})]
        )
        scope = RunScope("run-s")
        with RunStore(tmp_path / "runs.db") as store:
            with scope.activate(), faults.activate(plan):
                store.save_run_obs("r", {"timings": {"stage": 1.0}})
            assert store.load_run_obs("r") == {"timings": {"stage": 1.0}}
        assert plan.fired() == 1
        assert scope.metrics.counter("store.write.retry") == 1

    def test_write_retry_exhaustion_propagates(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_STORE_WRITE_RETRIES", "1")
        plan = faults.FaultPlan([faults.FaultRule("store.write", times=None)])
        with RunStore(tmp_path / "runs.db") as store:
            with faults.activate(plan):
                with pytest.raises(faults.InjectedFault):
                    store.save_run_obs("r", {"timings": {"stage": 1.0}})
            assert store.load_run_obs("r") is None
        assert plan.fired() == 2  # initial attempt + one retry

    def test_locked_error_is_transient_other_errors_are_not(self, tmp_path):
        with RunStore(tmp_path / "runs.db") as store:
            calls = []

            def locked_once(conn):
                if not calls:
                    calls.append(1)
                    raise sqlite3.OperationalError("database is locked")
                return 42

            assert store._write("test_op", locked_once) == 42
            assert len(calls) == 1

            attempts = []

            def always_broken(conn):
                attempts.append(1)
                raise sqlite3.OperationalError("no such table: nope")

            with pytest.raises(sqlite3.OperationalError):
                store._write("test_op", always_broken)
            assert len(attempts) == 1  # non-transient: no retry

    def test_fault_rule_can_target_shard_result_writes(self, tmp_path):
        plan = faults.FaultPlan(
            [faults.FaultRule("store.write", where={"op": "save_shard_result"})]
        )
        with RunStore(tmp_path / "runs.db") as store:
            with faults.activate(plan):
                store.save_shard_result(
                    "r", 0, "u0", "graph", RempResult(set(), 0, 0), {}, []
                )
            units, _ = store.load_shard_records("r")
            assert set(units) == {"u0"}
        assert plan.fired() == 1  # fired once, then the write retried

    def test_lease_stub_rows_are_invisible_to_resume(
        self, tmp_path, state, crowd, reference
    ):
        """A ``kind='lease'`` stub row left in a legacy store is dropped.

        Stores written while shards held leases keep four extra
        ``shard_checkpoints`` columns and may hold such stubs from an
        interrupted run.  A stub carries no execution state, so the
        migration drops it with the table; the stubbed shard starts over,
        and a run on that run id lands on the storeless reference.
        """
        ref_result, loops = reference
        path = _legacy_shard_store(tmp_path, ("r", _victim(loops)))
        with RunStore(path) as store:
            assert store.load_shard_records("r") == ({}, {})
            runner = ParallelRunner(workers=1, store=store, run_id="r")
            result = runner.run(state, crowd)
            units, _ = store.load_shard_records("r")
            keys = runner._shard_keys(runner.plan(state))
            assert keys[_victim(loops)] in units
        assert _doc(result) == _doc(ref_result)

    def test_migration_drops_the_lease_table(self, tmp_path):
        """A store with the lease columns opens without them.

        The migration drops ``shard_checkpoints`` with its four lease
        columns (no ``DROP COLUMN`` needed, which takes SQLite >= 3.35),
        and a shard's checkpoint then reads back from its journal.
        """
        path = _legacy_shard_store(tmp_path, ("r", 0))
        checkpoint = LoopCheckpoint(
            next_loop_index=1,
            questions_asked=4,
            history=[],
            loop_state={},
            answer_log=[],
        )
        with RunStore(path) as store:
            store.save_shard_checkpoint("r", 0, checkpoint)
            units, journals = store.load_shard_records("r")
            assert units == {} and journals[0].questions_asked == 4
            tables = {
                row[0]
                for row in store._conn.execute("SELECT name FROM sqlite_master")
            }
        assert "shard_checkpoints" not in tables


# ----------------------------------------------------------------------
# Crowd: timeout/retry policy, billing conservation
# ----------------------------------------------------------------------
def _oracle_platform(truth, policy) -> CrowdPlatform:
    return CrowdPlatform(
        [Oracle()], truth, workers_per_question=1, retry_policy=policy
    )


class TestCrowdRetry:
    TRUTH = {("a", "b")}

    def test_retry_policy_validation(self):
        with pytest.raises(ValueError):
            CrowdRetryPolicy(attempts=0)
        with pytest.raises(ValueError):
            CrowdRetryPolicy(backoff=-1.0)
        assert CrowdRetryPolicy(backoff=0.1).delay(2) == pytest.approx(0.4)

    def test_retry_reproduces_labels_and_bills_once(self):
        policy = CrowdRetryPolicy(attempts=3, backoff=0.0)
        clean = _oracle_platform(self.TRUTH, policy)
        expected = clean.ask(("a", "b"))
        platform = _oracle_platform(self.TRUTH, policy)
        plan = faults.FaultPlan(
            [faults.FaultRule("crowd.answer", where={"attempt": 0})]
        )
        scope = RunScope("run-c")
        with scope.activate(), faults.activate(plan):
            records = platform.ask(("a", "b"))
        assert records == expected
        assert platform.questions_asked == 1
        assert plan.fired() == 1
        assert scope.metrics.counter("crowd.retry") == 1
        # The recorded answer is cached: asking again costs nothing and
        # probes nothing.
        with faults.activate(faults.FaultPlan([faults.FaultRule("crowd.answer")])):
            assert platform.ask(("a", "b")) == expected
        assert platform.questions_asked == 1

    def test_exhausted_retries_raise_unavailable_and_bill_nothing(self):
        platform = _oracle_platform(
            self.TRUTH, CrowdRetryPolicy(attempts=2, backoff=0.0)
        )
        plan = faults.FaultPlan(
            [faults.FaultRule("crowd.answer", times=None)]
        )
        with faults.activate(plan):
            with pytest.raises(CrowdUnavailableError):
                platform.ask(("a", "b"))
        assert plan.fired() == 2
        assert platform.questions_asked == 0
        assert platform.ask(("a", "b"))  # recovers once the fault clears

    def test_slow_answers_are_counted(self):
        platform = _oracle_platform(
            self.TRUTH, CrowdRetryPolicy(attempts=1, slow_threshold=0.0)
        )
        scope = RunScope("run-slow")
        with scope.activate():
            platform.ask(("a", "b"))
        assert scope.metrics.counter("crowd.slow") == 1


# ----------------------------------------------------------------------
# Supervised pool execution
# ----------------------------------------------------------------------
def _assert_no_stray_children():
    time.sleep(0.2)
    assert not multiprocessing.active_children()


def _env_rules(monkeypatch, rules: list[dict]) -> None:
    monkeypatch.setenv(faults.ENV_VAR, json.dumps(rules))


START_METHODS = [
    method
    for method in ("fork", "spawn")
    if method in multiprocessing.get_all_start_methods()
]


class TestSupervisedPool:
    @pytest.mark.parametrize("start_method", START_METHODS)
    def test_killed_worker_is_requeued_byte_identically(
        self, state, crowd, reference, monkeypatch, start_method
    ):
        ref_result, loops = reference
        victim = _victim(loops)
        monkeypatch.setenv("REPRO_START_METHOD", start_method)
        # ``where`` (not ``times``) keys the rule: spawn workers re-parse
        # the env plan with fresh counters, but the requeued task carries
        # attempt=1 so the replacement worker sails past the probe.
        _env_rules(
            monkeypatch,
            [
                {
                    "site": "worker.mid_shard",
                    "action": "kill",
                    "where": {"shard_id": victim, "attempt": 0},
                }
            ],
        )
        events = []
        scope = RunScope("run-kill")
        with scope.activate():
            result = ParallelRunner(workers=2, on_event=events.append).run(
                state, crowd
            )
        assert _doc(result) == _doc(ref_result)
        assert result.questions_asked == ref_result.questions_asked
        retried = [e for e in events if e.kind == "retried"]
        assert [(e.shard_id, e.attempt) for e in retried] == [(victim, 1)]
        assert scope.metrics.counter("fault.worker_death") == 1
        assert scope.metrics.counter("fault.shard_retry") == 1
        _assert_no_stray_children()

    def test_worker_startup_failure_replenishes_pool(
        self, state, crowd, reference, monkeypatch
    ):
        ref_result, _ = reference
        _env_rules(
            monkeypatch,
            [{"site": "worker.start", "action": "error", "where": {"worker": 0}}],
        )
        scope = RunScope("run-start")
        with scope.activate():
            result = ParallelRunner(workers=2).run(state, crowd)
        assert _doc(result) == _doc(ref_result)
        assert scope.metrics.counter("fault.worker_death") == 1
        # No shard was claimed by the stillborn worker: nothing retried.
        assert scope.metrics.counter("fault.shard_retry") == 0
        _assert_no_stray_children()

    def test_transient_worker_error_is_retried(
        self, state, crowd, reference, monkeypatch
    ):
        ref_result, loops = reference
        victim = _victim(loops)
        _env_rules(
            monkeypatch,
            [
                {
                    "site": "worker.mid_shard",
                    "action": "error",
                    "where": {"shard_id": victim, "attempt": 0},
                }
            ],
        )
        events = []
        result = ParallelRunner(workers=2, on_event=events.append).run(state, crowd)
        assert _doc(result) == _doc(ref_result)
        assert any(e.kind == "retried" and e.shard_id == victim for e in events)
        _assert_no_stray_children()

    def test_inline_execution_shares_the_retry_loop(
        self, state, crowd, reference, monkeypatch
    ):
        ref_result, loops = reference
        victim = _victim(loops)
        _env_rules(
            monkeypatch,
            [
                {
                    "site": "worker.mid_shard",
                    "action": "error",
                    "where": {"shard_id": victim, "attempt": 0},
                }
            ],
        )
        events = []
        result = ParallelRunner(workers=1, on_event=events.append).run(state, crowd)
        assert _doc(result) == _doc(ref_result)
        assert any(e.kind == "retried" and e.shard_id == victim for e in events)

    def test_poison_shard_quarantines_into_partial_result(
        self, state, crowd, reference, monkeypatch
    ):
        ref_result, loops = reference
        victim = _victim(loops)
        _env_rules(
            monkeypatch,
            [
                {
                    "site": "worker.mid_shard",
                    "action": "error",
                    "times": None,
                    "where": {"shard_id": victim},
                }
            ],
        )
        events = []
        scope = RunScope("run-poison")
        with scope.activate():
            with pytest.raises(PartialResult) as info:
                ParallelRunner(
                    workers=2, on_event=events.append, max_shard_retries=1
                ).run(state, crowd)
        partial = info.value
        assert [q["shard_id"] for q in partial.quarantined] == [victim]
        assert partial.quarantined[0]["attempts"] == 2
        assert partial.quarantined[0]["kind"] == "graph"
        # The healthy shards' merged outcome rides along, strictly smaller
        # than the reference.
        assert partial.result.matches < ref_result.matches
        assert partial.result.questions_asked < ref_result.questions_asked
        assert any(e.kind == "quarantined" and e.shard_id == victim for e in events)
        assert scope.metrics.counter("fault.quarantine") == 1
        # Regression: no worker outlives a degraded run.
        _assert_no_stray_children()

    def test_kill_then_resume_from_store(
        self, state, crowd, reference, monkeypatch, tmp_path
    ):
        ref_result, loops = reference
        victim = _victim(loops)
        _env_rules(
            monkeypatch,
            [
                {
                    "site": "worker.mid_shard",
                    "action": "kill",
                    "where": {"shard_id": victim, "attempt": 0},
                }
            ],
        )
        store = RunStore(tmp_path / "runs.db")
        with store:
            with pytest.raises(PartialResult):
                ParallelRunner(
                    workers=2, store=store, run_id="r", max_shard_retries=0
                ).run(state, crowd)
            _assert_no_stray_children()
            # The healthy shards persisted their results; the victim
            # died before its first checkpoint shipped, so it has none.
            units, journals = store.load_shard_records("r")
            runner = ParallelRunner()
            keys = runner._shard_keys(runner.plan(state))
            records = {shard_id for shard_id, key in keys.items() if key in units}
            assert records and victim not in records
            assert journals == {}
            # A later run on the same store finishes the quarantined shard
            # and lands byte-identical to the fault-free reference.
            monkeypatch.delenv(faults.ENV_VAR)
            events = []
            result = ParallelRunner(
                workers=2, store=store, run_id="r", on_event=events.append
            ).run(state, crowd)
            assert _doc(result) == _doc(ref_result)
            assert result.questions_asked == ref_result.questions_asked
            restored = {e.shard_id for e in events if e.kind == "restored"}
            assert restored == set(records)
        _assert_no_stray_children()


# ----------------------------------------------------------------------
# The chaos equivalence oracle
# ----------------------------------------------------------------------
class TestChaosEquivalence:
    def _chaos_rules(self, victim: int) -> list[dict]:
        return [
            # One worker killed mid-shard (first attempt only).
            {
                "site": "worker.mid_shard",
                "action": "kill",
                "where": {"shard_id": victim, "attempt": 0},
            },
            # One transient store write failure (first attempt only).
            {
                "site": "store.write",
                "action": "error",
                "where": {"op": "save_shard_checkpoint", "attempt": 0},
                "times": 1,
            },
            # One slow and one failing crowd answer (retried internally).
            {"site": "crowd.answer", "action": "delay", "delay": 0.01, "times": 1},
            {"site": "crowd.answer", "action": "error", "where": {"attempt": 0}},
        ]

    def test_partitioned_run_survives_chaos_byte_identically(
        self, state, crowd, reference, monkeypatch, tmp_path
    ):
        ref_result, loops = reference
        victim = _victim(loops)
        _env_rules(monkeypatch, self._chaos_rules(victim))
        scope = RunScope("run-chaos")
        with RunStore(tmp_path / "runs.db") as store, scope.activate():
            result = ParallelRunner(workers=2, store=store, run_id="r").run(
                state, crowd
            )
        assert _doc(result) == _doc(ref_result)
        assert result.questions_asked == ref_result.questions_asked
        assert scope.metrics.counter("fault.worker_death") == 1
        assert scope.metrics.counter("store.write.retry") >= 1
        _assert_no_stray_children()

    def test_stream_run_survives_chaos_byte_identically(
        self, state, crowd, monkeypatch
    ):
        # The stream layer shards at max_shard_size=1, so the victim comes
        # from a fault-free stream reference, not the partitioned plan.
        events = []
        runner = StreamRunner(RempConfig(), seed=0, workers=2, on_event=events.append)
        ref = runner.run_full(state, crowd)
        loops: dict[int, int] = {}
        for event in events:
            if event.kind == "checkpointed":
                loops[event.shard_id] = max(loops.get(event.shard_id, 0), event.loops)
        victim = _victim(loops)
        rules = [rule for rule in self._chaos_rules(victim) if rule["site"] != "store.write"]
        _env_rules(monkeypatch, rules)
        chaotic = StreamRunner(RempConfig(), seed=0, workers=2).run_full(state, crowd)
        assert _doc(chaotic.result) == _doc(ref.result)
        assert chaotic.result.questions_asked == ref.result.questions_asked
        _assert_no_stray_children()
