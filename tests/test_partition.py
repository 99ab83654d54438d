"""Tests for the partition subsystem: partitioner, runner, merger, events."""

import io
from collections import Counter
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accel import reference
from repro.core import Remp, RempConfig
from repro.core.pipeline import LoopState, merge_loop_snapshots, parse_state_doc
from repro.crowd import CrowdPlatform
from repro.eval import evaluate_matches
from repro.partition import (
    CrowdSpec,
    ParallelRunner,
    ShardProgressPrinter,
    entity_closure_components,
    pack_components,
    content_seed,
    partition_state,
    split_budget,
)
from repro.partition.partitioner import closure_components
from repro.service import MatchingService
from repro.store import RunStore


@pytest.fixture(scope="module")
def bundle(clustered6_bundle):
    return clustered6_bundle


@pytest.fixture(scope="module")
def state(prepared_clustered6):
    return prepared_clustered6


@pytest.fixture(scope="module")
def crowd(bundle):
    return CrowdSpec(truth=bundle.gold_matches, error_rate=0.0, seed=0)


class TestEntityClosure:
    def test_groups_cover_retained_disjointly(self, state):
        groups = entity_closure_components(state)
        union = set().union(*groups)
        assert union == state.retained
        assert sum(map(len, groups)) == len(state.retained)

    def test_groups_closed_under_edges_and_entities(self, state):
        groups = entity_closure_components(state)
        index = {pair: i for i, group in enumerate(groups) for pair in group}
        for vertex, by_label in state.graph.groups.items():
            for members in by_label.values():
                for neighbor in members:
                    assert index[vertex] == index[neighbor]
        by_entity = {}
        for pair in state.retained:
            for entity in pair:
                by_entity.setdefault(entity, set()).add(index[pair])
        assert all(len(groups_) == 1 for groups_ in by_entity.values())

    def test_one_group_per_cluster(self, state, bundle):
        groups = [
            g for g in entity_closure_components(state) if not g <= state.isolated
        ]
        assert len(groups) == 6  # one per studio cluster


_LEFT = st.sampled_from([f"x:{i}" for i in range(8)])
_RIGHT = st.sampled_from([f"y:{i}" for i in range(8)])


@st.composite
def _pairs_with_symmetric_groups(draw):
    """Random pairs and ER-graph groups whose every edge has its inverse."""
    pairs = sorted(draw(st.sets(st.tuples(_LEFT, _RIGHT), max_size=24)))
    groups: dict = {}
    if pairs:
        edges = draw(
            st.lists(
                st.tuples(
                    st.sampled_from(pairs), st.sampled_from(("r", "s")), st.sampled_from(pairs)
                ),
                max_size=12,
            )
        )
        for source, label, target in edges:
            groups.setdefault(source, {}).setdefault((label, label), set()).add(target)
            inverse = ("~" + label, "~" + label)
            groups.setdefault(target, {}).setdefault(inverse, set()).add(source)
    return set(pairs), groups


class TestClosureWalk:
    @settings(max_examples=300, deadline=None)
    @given(case=_pairs_with_symmetric_groups())
    def test_walk_equals_union_find(self, case):
        """The by-entity and graph walk finds the union–find's components."""
        pairs, groups = case
        state = SimpleNamespace(retained=pairs, graph=SimpleNamespace(groups=groups))
        walked = closure_components(pairs, groups)
        assert sum(map(len, walked)) == len(pairs)
        assert set(walked) == {
            frozenset(c) for c in reference.entity_closure_components(state)
        }

    def test_a_state_keeps_its_components(self, state):
        components = entity_closure_components(state)
        assert entity_closure_components(state) is components
        assert set(components) == {
            frozenset(c) for c in reference.entity_closure_components(state)
        }
        assert state.restrict(set(state.retained)).components is None


class TestPartitioner:
    def test_graph_shards_cover_loop_pairs(self, state):
        plan = partition_state(state)
        covered = set().union(*(set(s.vertices) for s in plan.graph_shards))
        # Isolated pairs entity-linked to a component ride along; the
        # truly disconnected rest appears only in the classifier shards.
        assert state.retained - state.isolated <= covered
        assert covered <= state.retained
        isolated_covered = set().union(
            *(set(s.vertices) for s in plan.isolated_shards)
        )
        assert isolated_covered == state.isolated

    def test_graph_shards_are_disjoint(self, state):
        plan = partition_state(state)
        seen = set()
        for shard in plan.graph_shards:
            assert not (set(shard.vertices) & seen)
            seen |= set(shard.vertices)

    def test_shard_slices_are_self_contained(self, state):
        plan = partition_state(state)
        for shard in plan.graph_shards:
            vertices = set(shard.vertices)
            shard_state = shard.slice(state)
            assert shard_state.retained == vertices
            assert not shard_state.isolated
            for vertex, by_label in shard_state.graph.groups.items():
                assert vertex in vertices
                for members in by_label.values():
                    assert members <= vertices
            # The slice keeps every edge of the full graph inside it.
            full_edges = sum(
                len(m & vertices)
                for v in vertices
                for m in state.graph.groups.get(v, {}).values()
            )
            assert shard_state.graph.num_edges == full_edges
            assert shard.num_edges == full_edges

    def test_max_shard_size_respected(self, state):
        plan = partition_state(state, max_shard_size=40)
        sizes = {len(c) for c in entity_closure_components(state)}
        for shard in plan.graph_shards:
            # A shard may exceed the cap only when a single component does.
            assert shard.num_pairs <= 40 or shard.num_components == 1
        assert max(sizes) <= max(s.num_pairs for s in plan.graph_shards)

    def test_layout_is_deterministic(self, state):
        first = partition_state(state)
        second = partition_state(state)
        assert [s.vertices for s in first.shards] == [s.vertices for s in second.shards]
        assert [s.kind for s in first.shards] == [s.kind for s in second.shards]

    def test_isolated_split(self, state):
        (shard,) = partition_state(state).isolated_shards
        assert set(shard.vertices) == state.isolated
        shard_state = shard.slice(state)
        assert shard_state.isolated == state.isolated
        # The classifier's neighborhoods span all retained pairs.
        assert shard_state.retained == state.retained

    def test_describe_mentions_every_shard(self, state):
        plan = partition_state(state)
        text = plan.describe()
        for shard in plan.shards:
            assert f"\n{shard.shard_id:>5} " in text

    def test_invalid_parameters_rejected(self, state):
        with pytest.raises(ValueError):
            partition_state(state, target_shards=0)
        with pytest.raises(ValueError):
            partition_state(state, max_shard_size=0)


class TestPackComponents:
    def test_never_splits_a_component(self):
        components = [{("a", str(i)) for i in range(5)}, {("b", "0")}]
        bins = pack_components(components, max_shard_size=3)
        assert sorted(map(len, (set().union(*b) for b in bins))) == [1, 5]

    def test_balances_small_components(self):
        components = [{(chr(97 + i), "0")} for i in range(8)]
        bins = pack_components(components, max_shard_size=2)
        assert len(bins) == 4
        assert all(len(b) == 2 for b in bins)


class TestSplitBudget:
    def test_none_passes_through(self):
        assert split_budget(None, [3, 1]) == [None, None]

    def test_total_is_conserved(self):
        for total in (0, 1, 7, 100):
            allocation = split_budget(total, [5, 3, 2, 7])
            assert sum(allocation) == total

    def test_proportionality(self):
        assert split_budget(10, [3, 1, 1]) == [6, 2, 2]

    def test_budget_smaller_than_shards(self):
        allocation = split_budget(2, [1, 1, 1, 1])
        assert sum(allocation) == 2
        assert all(b in (0, 1) for b in allocation)

    def test_empty(self):
        assert split_budget(5, []) == []


class TestShardSeed:
    def test_distinct_and_stable(self):
        seeds = {content_seed(0, str(i)) for i in range(100)}
        assert len(seeds) == 100
        assert content_seed(7, "3") == content_seed(7, "3")
        assert content_seed(7, "3") != content_seed(8, "3")


class TestParallelRunner:
    def test_matches_monolithic_run(self, bundle, state, crowd):
        result = ParallelRunner(workers=1).run(state, crowd)
        mono = Remp().run(
            bundle.kb1,
            bundle.kb2,
            CrowdPlatform.with_oracle(bundle.gold_matches),
            state=state,
        )
        quality = evaluate_matches(result.matches, bundle.gold_matches)
        mono_quality = evaluate_matches(mono.matches, bundle.gold_matches)
        assert quality.f1 >= mono_quality.f1 - 0.05
        assert quality.f1 >= 0.9

    def test_budget_is_split_and_respected(self, state, crowd):
        config = RempConfig(budget=4)
        result = ParallelRunner(config, workers=1).run(state, crowd)
        # The budget gates the human–machine loop; isolated-pair seed
        # questions are unbudgeted, exactly as in the monolithic run.
        loop_questions = {q for record in result.history for q in record.questions}
        assert len(loop_questions) <= 4

    def test_events_cover_lifecycle(self, state, crowd):
        events = []
        ParallelRunner(workers=1, on_event=events.append).run(state, crowd)
        plan = partition_state(state)
        started = {e.shard_id for e in events if e.kind == "started"}
        finished = {e.shard_id for e in events if e.kind == "finished"}
        assert started == finished == {s.shard_id for s in plan.shards}
        assert any(e.kind == "checkpointed" for e in events)
        for event in events:
            if event.kind == "checkpointed":
                assert event.loops >= 1
        # Started always precedes finished for the same shard.
        for shard_id in started:
            kinds = [e.kind for e in events if e.shard_id == shard_id]
            assert kinds.index("started") < kinds.index("finished")

    def test_history_reindexed_sequentially(self, state, crowd):
        result = ParallelRunner(workers=1).run(state, crowd)
        assert [r.loop_index for r in result.history] == list(
            range(len(result.history))
        )
        assert result.num_loops == len(result.history)

    def test_parent_side_exception_terminates_pool(self, state, crowd):
        """A raising on_event sink must not leave orphaned workers behind."""
        import multiprocessing
        import time

        class Boom(Exception):
            pass

        def sink(event):
            raise Boom

        with pytest.raises(Boom):
            ParallelRunner(workers=2, on_event=sink).run(state, crowd)
        time.sleep(0.2)
        assert not multiprocessing.active_children()

    def test_invalid_workers_rejected(self):
        with pytest.raises(ValueError):
            ParallelRunner(workers=0)

    def test_store_requires_run_id(self):
        with pytest.raises(ValueError):
            ParallelRunner(store=RunStore(":memory:"))


class TestShardCheckpointStore:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_runner_persists_and_finish_clears(
        self, tmp_path, state, crowd, workers, monkeypatch
    ):
        store = RunStore(tmp_path / "s.db")
        run_id = store.create_run("clustered", 0, 1.0, None, workers=workers)
        runner = ParallelRunner(workers=workers, store=store, run_id=run_id)
        ops = []
        write = store._write

        def recording_write(op, fn):
            ops.append(op)
            return write(op, fn)

        monkeypatch.setattr(store, "_write", recording_write)
        result = runner.run(state, crowd)
        monkeypatch.undo()
        units, journals = store.load_shard_records(run_id)
        plan = partition_state(state)
        keys = runner._shard_keys(plan)
        # One unit row per shard, under its unit key; no journal is left.
        assert set(units) == set(keys.values())
        assert journals == {}
        assert store.stats()["stream_units"] == len(plan.shards)
        assert store.stats()["shard_journals"] == 0
        # The supervisor's whole write set: one checkpoint per labeling
        # round of each graph shard, one result per shard, nothing else.
        rounds = sum(
            units[keys[s.shard_id]]["result"]["num_loops"] for s in plan.graph_shards
        )
        assert rounds > 0
        assert ops.count("save_shard_result") == len(plan.shards)
        assert ops.count("save_shard_checkpoint") == rounds
        assert set(ops) == {"save_shard_result", "save_shard_checkpoint"}
        store.finish_run(run_id, result)
        assert store.load_shard_records(run_id) == ({}, {})
        store.close()

    def test_reused_units_write_nothing(self, tmp_path, monkeypatch):
        """A stream update's write set covers only the units it executed.

        Reused units take their outcome by reference: no shard row and
        no ``shard.restored`` row in ``run_events``.  ``on_event`` and
        the ``partition.shard.restored`` counter still see each one, and
        the durable log counts them on ``stream.summary``.
        """
        from repro.datasets import evolving_bundle

        delta = evolving_bundle(seed=0, scale=0.4, steps=1).deltas[0]
        with MatchingService(str(tmp_path / "svc.db")) as service:
            store = service.store
            root = service.submit("evolving", scale=0.4, background=False, stream=True)
            service.result(root)
            ops = []
            write = store._write

            def recording_write(op, fn):
                ops.append(op)
                return write(op, fn)

            monkeypatch.setattr(store, "_write", recording_write)
            events = []
            run_id = service.update(
                root, delta, background=False, on_event=events.append
            )
            service.result(run_id)
            monkeypatch.undo()
            outcome = service.stream_outcome(run_id)
            rows = store.tail_run_events(run_id)
            counters = store.load_run_obs(run_id)["metrics"]["counters"]
        assert outcome.reused_keys and outcome.executed_keys
        assert ops.count("save_shard_result") == len(outcome.executed_keys)
        assert [e for e in rows if e["kind"] == "shard.restored"] == []
        assert sum(1 for e in rows if e["kind"] == "shard.finished") == len(
            outcome.executed_keys
        )
        (summary,) = [e for e in rows if e["kind"] == "stream.summary"]
        assert summary["reused"] == len(outcome.reused_keys)
        restored = [e for e in events if e.kind == "restored"]
        assert len(restored) == len(outcome.reused_keys)
        assert counters["partition.shard.restored"] == len(outcome.reused_keys)

    def test_second_run_restores_all_shards(self, tmp_path, state, crowd):
        store = RunStore(tmp_path / "s.db")
        run_id = store.create_run("clustered", 0, 1.0, None, workers=1)
        baseline = ParallelRunner(workers=1, store=store, run_id=run_id).run(
            state, crowd
        )
        events = []
        rerun = ParallelRunner(
            workers=1, store=store, run_id=run_id, on_event=events.append
        ).run(state, crowd)
        assert {e.kind for e in events} == {"restored"}
        assert rerun.matches == baseline.matches
        assert rerun.questions_asked == baseline.questions_asked
        assert [r.questions for r in rerun.history] == [
            r.questions for r in baseline.history
        ]
        store.close()


_SETS = ("labeled_matches", "inferred_matches", "resolved_matches", "resolved_non_matches")
_PAIRS = [(f"l{i}", f"r{j}") for i in range(4) for j in range(3)]


def _merged_document(priors, snapshots) -> dict:
    """The graph units' merge as one sorted snapshot document.

    The isolated shard restored from this document before the direct
    merge: the prepared priors overlaid with each snapshot's, the sets
    unioned, and a resolved match winning over a non-match.
    """
    priors = dict(priors)
    sets = {name: set() for name in _SETS}
    for doc in snapshots:
        priors.update(((left, right), p) for left, right, p in doc["priors"])
        for name in _SETS:
            sets[name].update((left, right) for left, right in doc[name])
    sets["resolved_non_matches"] -= sets["resolved_matches"]
    document = {"priors": sorted([left, right, p] for (left, right), p in priors.items())}
    document.update((name, sorted(map(list, sets[name]))) for name in _SETS)
    return document


def _assert_direct_merge_restores_the_document(state, snapshots) -> LoopState:
    direct = LoopState(state, RempConfig())
    direct.restore(*merge_loop_snapshots(state, snapshots))
    documented = LoopState(state, RempConfig())
    documented.restore(*parse_state_doc(_merged_document(state.priors, snapshots)))
    assert direct.priors == documented.priors
    assert list(direct.priors) == list(documented.priors) == list(state.priors)
    for name in _SETS:
        assert getattr(direct, name) == getattr(documented, name), name
    assert direct.unresolved() == documented.unresolved()
    return direct


@st.composite
def _unit_snapshots(draw):
    """Prepared priors in a drawn key order, and unit snapshots over shared pairs.

    One contested pair is a resolved match in the first snapshot and a
    resolved non-match in the last.
    """
    probability = st.floats(0.0, 1.0)
    pair_sets = st.sets(st.sampled_from(_PAIRS), max_size=6)
    priors = {pair: draw(probability) for pair in draw(st.permutations(_PAIRS))}
    units = [
        (draw(pair_sets), {name: draw(pair_sets) for name in _SETS})
        for _ in range(draw(st.integers(2, 4)))
    ]
    contested = draw(st.sampled_from(_PAIRS))
    units[0][1]["resolved_matches"].add(contested)
    units[0][1]["resolved_non_matches"].discard(contested)
    units[-1][1]["resolved_non_matches"].add(contested)
    units[-1][1]["resolved_matches"].discard(contested)
    snapshots = []
    for prior_pairs, sets in units:
        doc = {"priors": sorted([left, right, draw(probability)] for left, right in prior_pairs)}
        doc.update((name, sorted(map(list, sets[name]))) for name in _SETS)
        snapshots.append(doc)
    return priors, snapshots, contested


class TestMergeLoopSnapshots:
    """The isolated shard's input: unit snapshots merged without a document."""

    @settings(max_examples=80, deadline=None)
    @given(_unit_snapshots())
    def test_direct_merge_restores_as_the_merged_document(self, drawn):
        priors, snapshots, contested = drawn
        state = SimpleNamespace(priors=priors, retained=set(_PAIRS))
        restored = _assert_direct_merge_restores_the_document(state, snapshots)
        assert contested in restored.resolved_matches
        assert contested not in restored.resolved_non_matches

    def test_direct_merge_on_a_real_stream_step(self):
        from repro.datasets import evolving_bundle
        from repro.stream import StreamRunner

        bundle = evolving_bundle(seed=0, scale=0.4, steps=1).bundle_at(1)
        state = Remp().prepare(bundle.kb1, bundle.kb2)
        crowd = CrowdSpec(truth=bundle.gold_matches, error_rate=0.1, seed=0)
        outcome = StreamRunner(seed=0).run_full(state, crowd)
        snapshots = [
            record.snapshot for record in outcome.records.values() if record.kind == "graph"
        ]
        restored = _assert_direct_merge_restores_the_document(state, snapshots)
        assert len(snapshots) > 1 and restored.resolved_matches

class TestServiceWorkers:
    def test_partitioned_session_round_trip(self, tmp_path):
        from repro.datasets import load_dataset

        gold = load_dataset("iimb", seed=0, scale=0.2).gold_matches
        with MatchingService(str(tmp_path / "svc.db")) as service:
            run_id = service.submit("iimb", scale=0.2, workers=1, background=False)
            result = service.result(run_id)
            record = service.store.get_run(run_id)
            assert record.status == "done"
            assert record.workers == 1
            assert record.partitioned
            # Quality on par with the monolithic session for the same key.
            mono_id = service.submit("iimb", scale=0.2, background=False)
            mono = service.result(mono_id)
            assert service.store.get_run(mono_id).workers is None
            partitioned_f1 = evaluate_matches(result.matches, gold).f1
            mono_f1 = evaluate_matches(mono.matches, gold).f1
            assert partitioned_f1 >= mono_f1 - 0.05

    def test_step_rejected_for_partitioned_sessions(self, tmp_path):
        with MatchingService(str(tmp_path / "svc.db")) as service:
            run_id = service.submit("iimb", scale=0.2, workers=1, background=False)
            with pytest.raises(ValueError):
                service.step(run_id)

    def test_concurrent_result_calls_execute_once(self, tmp_path):
        import threading

        events = []
        with MatchingService(str(tmp_path / "svc.db")) as service:
            run_id = service.submit(
                "iimb",
                scale=0.2,
                workers=1,
                background=False,
                on_event=events.append,
            )
            results = []
            threads = [
                threading.Thread(target=lambda: results.append(service.result(run_id)))
                for _ in range(2)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert results[0].matches == results[1].matches
            # One execution: every shard started exactly once.
            started = [e.shard_id for e in events if e.kind == "started"]
            assert len(started) == len(set(started))

    def test_pool_shard_telemetry_reaches_its_run(self, tmp_path, monkeypatch):
        """A pool worker's timings, counters and spans reach its run's document.

        ``evolving`` x0.4 plans several graph shards, so with two workers
        each phase runs on the pool; with one it runs inline, straight
        into the session scope.  The persisted telemetry must not tell
        the two apart, except for the shard ids the workers stamp.
        """
        monkeypatch.delenv("REPRO_NO_TRACE", raising=False)
        docs = {}
        for workers in (1, 2):
            with MatchingService(str(tmp_path / f"w{workers}.db")) as service:
                run_id = service.submit(
                    "evolving", scale=0.4, workers=workers, background=False
                )
                service.result(run_id)
                docs[workers] = service.store.load_run_obs(run_id)
        inline, pooled = docs[1], docs[2]

        def calls(doc):
            return {name: stage["calls"] for name, stage in doc["timings"].items()}

        def span_names(doc):
            return Counter(span["name"] for span in doc["trace"])

        assert calls(pooled) == calls(inline)
        assert pooled["metrics"]["counters"] == inline["metrics"]["counters"]
        assert span_names(pooled) == span_names(inline)
        assert any("shard_id" in span for span in pooled["trace"])

    def test_resume_monolithic_as_partitioned_guarded(self, tmp_path):
        with MatchingService(str(tmp_path / "svc.db")) as service:
            run_id = service.submit("iimb", scale=0.2, background=False)
            session = service._session(run_id)
            session.step()  # leaves a mid-loop checkpoint
            service.store.fail_run(run_id, "killed")
            with pytest.raises(ValueError):
                service.resume(run_id, workers=2)


class TestProgressPrinter:
    def _events(self, state, crowd):
        events = []
        ParallelRunner(workers=1, on_event=events.append).run(state, crowd)
        return events

    def test_plain_stream_gets_one_line_per_event(self, state, crowd):
        events = self._events(state, crowd)
        stream = io.StringIO()
        printer = ShardProgressPrinter(stream, live=False)
        for event in events:
            printer(event)
        printer.close()
        lines = stream.getvalue().splitlines()
        # One line per event, plus the final summary close() appends.
        assert len(lines) == len(events) + 1
        assert any("finished" in line for line in lines)
        total = len({e.shard_id for e in events})
        assert lines[-1] == printer.render()
        assert f"partitions {total}/{total} done" in lines[-1]

    def test_plain_stream_close_is_idempotent_and_quiet_when_empty(self):
        stream = io.StringIO()
        printer = ShardProgressPrinter(stream, live=False)
        printer.close()
        printer.close()
        assert stream.getvalue() == ""

    def test_live_stream_rewrites_one_line(self, state, crowd):
        events = self._events(state, crowd)
        stream = io.StringIO()
        printer = ShardProgressPrinter(stream, live=True)
        for event in events:
            printer(event)
        printer.close()
        output = stream.getvalue()
        assert output.count("\r") == len(events) + 1  # one redraw per event + close
        total = len({e.shard_id for e in events})
        assert f"partitions {total}/{total} done" in printer.render()

    def test_render_counts_questions(self):
        from repro.partition import ShardEvent

        printer = ShardProgressPrinter(io.StringIO(), live=False)
        printer(ShardEvent(0, "started", "graph", pairs=10))
        printer(ShardEvent(0, "checkpointed", "graph", pairs=10, loops=1, questions=5))
        printer(ShardEvent(1, "started", "graph", pairs=10))
        assert "questions 5" in printer.render()
        assert "partitions 0/2 done" in printer.render()
