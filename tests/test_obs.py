"""Tests for repro.obs: tracer, metrics, run scopes, artifact contract."""

import json
import logging
import tomllib
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import load_dataset
from repro.kb.io import kb_pair_fingerprint
from repro.obs import (
    ARTIFACT_FILES,
    MetricsRegistry,
    RunScope,
    Tracer,
    benchmark_metrics_doc,
    export_run_artifacts,
    fallback_cost_ledger,
)
from repro.obs import runtime as obs_runtime
from repro.obs.logging import get_logger
from repro.obs.metrics import ROOT
from repro.obs.trace import NO_SPAN
from repro.service import MatchingService
from repro.store import RunStore
from repro.store.serialize import result_to_doc


class TestTracer:
    def test_spans_nest_per_thread(self):
        tracer = Tracer("run-1", enabled=True)
        with tracer.span("outer"):
            with tracer.span("inner", detail=7):
                pass
        spans = tracer.spans()
        assert [s["name"] for s in spans] == ["outer", "inner"]
        outer, inner = spans
        assert inner["parent_id"] == outer["id"]
        assert "parent_id" not in outer
        assert inner["detail"] == 7
        assert all(s["run_id"] == "run-1" for s in spans)
        assert all(s["dur"] >= 0 for s in spans)

    def test_correlation_fields_stamped(self):
        tracer = Tracer("run-2", shard_id=3, stream_step=1, enabled=True)
        tracer.event("mark")
        (span,) = tracer.spans()
        assert span["shard_id"] == 3
        assert span["stream_step"] == 1
        assert span["dur"] == 0.0

    def test_disabled_tracer_collects_nothing(self):
        tracer = Tracer("run-3", enabled=False)
        with tracer.span("ignored"):
            pass
        tracer.event("also-ignored")
        assert tracer.spans() == []

    def test_no_trace_env_gates_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_TRACE", "1")
        assert not Tracer("r").enabled
        monkeypatch.delenv("REPRO_NO_TRACE")
        assert Tracer("r").enabled

    def test_span_cap_counts_drops(self, monkeypatch):
        monkeypatch.setattr("repro.obs.trace.MAX_SPANS", 2)
        tracer = Tracer("run-4", enabled=True)
        for _ in range(5):
            tracer.event("e")
        assert len(tracer.spans()) == 2
        assert tracer.dropped == 3

    def test_add_spans_absorbs_children(self):
        parent = Tracer("run-5", enabled=True)
        child = Tracer("run-5", shard_id=0, enabled=True)
        child.event("child-work")
        parent.add_spans(child.spans(), child.dropped)
        (span,) = parent.spans()
        assert span["shard_id"] == 0


class TestMetricsRegistry:
    def test_counters_accumulate_and_gauges_overwrite(self):
        registry = MetricsRegistry()
        registry.count("c")
        registry.count("c", 4)
        registry.gauge("g", 0.5)
        registry.gauge("g", 0.7)
        doc = registry.as_doc()
        assert doc == {"counters": {"c": 5}, "gauges": {"g": 0.7}}
        assert registry.counter("c") == 5
        assert registry.counter("missing") == 0

    def test_merge_and_round_trip(self):
        first = MetricsRegistry()
        first.count("questions", 3)
        first.gauge("rate", 0.25)
        second = MetricsRegistry.from_doc(first.as_doc())
        second.count("questions", 2)
        first.merge(second)
        assert first.counter("questions") == 8
        assert first.as_doc()["gauges"]["rate"] == 0.25

    def test_merge_takes_elementwise_gauge_max(self):
        # Pinned semantics: merged gauges take the element-wise max, so
        # absorbing shard registries is order-independent.  Direct
        # ``gauge()`` calls stay last-write (see the overwrite test).
        low, high = MetricsRegistry(), MetricsRegistry()
        low.gauge("depth", 2.0)
        high.gauge("depth", 5.0)
        high.gauge("only_high", 1.0)
        low.merge(high)
        assert low.as_doc()["gauges"] == {"depth": 5.0, "only_high": 1.0}
        # Merging the lower value back in does not regress the max.
        relow = MetricsRegistry()
        relow.gauge("depth", 2.0)
        low.merge(relow)
        assert low.as_doc()["gauges"]["depth"] == 5.0

    @settings(max_examples=50, deadline=None)
    @given(
        docs=st.lists(
            st.dictionaries(
                st.sampled_from(["a", "b", "c"]),
                st.floats(
                    min_value=-1e6,
                    max_value=1e6,
                    allow_nan=False,
                    allow_infinity=False,
                ),
                max_size=3,
            ),
            min_size=1,
            max_size=5,
        ),
        order=st.randoms(),
    )
    def test_gauge_merge_is_commutative_and_associative(self, docs, order):
        """Any absorption order of shard gauge docs yields the same
        merged registry — max is commutative and associative."""

        def merged(sequence):
            registry = MetricsRegistry()
            for gauges in sequence:
                registry.merge(MetricsRegistry.from_doc({"gauges": gauges}))
            return registry.as_doc()["gauges"]

        shuffled = list(docs)
        order.shuffle(shuffled)
        assert merged(docs) == merged(shuffled)
        # Associativity: pre-merging a prefix then folding the rest is
        # the same as folding everything one by one.
        prefix = MetricsRegistry()
        for gauges in docs[: len(docs) // 2]:
            prefix.merge(MetricsRegistry.from_doc({"gauges": gauges}))
        rest = MetricsRegistry.from_doc(prefix.as_doc())
        for gauges in docs[len(docs) // 2 :]:
            rest.merge(MetricsRegistry.from_doc({"gauges": gauges}))
        assert rest.as_doc()["gauges"] == merged(docs)


class TestRunScope:
    def test_helpers_are_noops_without_scope(self):
        obs_runtime.count("orphan")
        obs_runtime.gauge("orphan", 1.0)
        obs_runtime.event("orphan")
        assert obs_runtime.span("orphan") is NO_SPAN

    def test_helpers_route_to_active_scope(self):
        scope = RunScope("run-x", trace=True)
        with scope.activate():
            obs_runtime.count("hits", 2)
            obs_runtime.gauge("rate", 0.5)
            with obs_runtime.span("stage"):
                obs_runtime.event("inside")
        doc = scope.export()
        assert doc["metrics"]["counters"] == {"hits": 2}
        assert doc["metrics"]["gauges"] == {"rate": 0.5}
        assert [s["name"] for s in doc["trace"]] == ["stage", "inside"]

    def test_global_timings_route_to_scope(self):
        scope = RunScope("run-y", trace=True)
        with scope.activate():
            with obs_runtime.timed("scoped.stage"):
                pass
            with obs_runtime.timed("scoped.stage"):
                pass
        seconds, calls, own = scope.timings.snapshot()["scoped.stage"]
        assert calls == 2 and seconds >= 0 and own == seconds
        # timed() under a scope also emits its span, once per call.
        assert [s["name"] for s in scope.tracer.spans()] == ["scoped.stage"] * 2
        # Outside any activation it records nothing, anywhere.
        with obs_runtime.timed("orphan.stage"):
            pass
        assert "orphan.stage" not in scope.timings.snapshot()
        assert obs_runtime.current_scope() is None

    def test_scopes_do_not_leak_across_activations(self):
        inner, outer = RunScope("inner"), RunScope("outer")
        with outer.activate():
            with inner.activate():
                obs_runtime.count("work")
            obs_runtime.count("work")
        assert inner.metrics.counter("work") == 1
        assert outer.metrics.counter("work") == 1

    def test_absorb_folds_child_exports(self):
        parent = RunScope("p", trace=True)
        child = RunScope("p", shard_id=1, trace=True)
        with child.activate():
            obs_runtime.count("shard.work", 3)
            obs_runtime.event("shard.mark")
            with obs_runtime.timed("shard.stage"):
                pass
        with parent.activate():
            obs_runtime.absorb(child.export())
        assert parent.metrics.counter("shard.work") == 3
        assert parent.tracer.spans()[0]["shard_id"] == 1
        assert parent.timings.snapshot()["shard.stage"][1] == 1

    def test_absorb_keeps_child_dropped_spans_counted(self, monkeypatch):
        """A child's spans dropped at the cap stay counted in the parent."""
        monkeypatch.setattr("repro.obs.trace.MAX_SPANS", 2)
        parent = RunScope("p", trace=True)
        child = RunScope("p", shard_id=1, trace=True)
        with child.activate():
            for _ in range(5):
                obs_runtime.event("shard.mark")
        with parent.activate():
            obs_runtime.event("parent.mark")
            obs_runtime.absorb(child.export())
        # The child dropped 3 of its 5 spans; the parent kept its own
        # span and one of the child's 2, and dropped the other.
        assert child.export()["trace_dropped"] == 3
        doc = parent.export()
        assert len(doc["trace"]) == 2
        assert doc["trace_dropped"] == 3 + 1


class _Clock:
    """A settable ``time.perf_counter``, so ledger assertions are exact."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestStageLedger:
    @pytest.fixture()
    def clock(self, monkeypatch):
        clock = _Clock()
        monkeypatch.setattr(obs_runtime.time, "perf_counter", clock)
        return clock

    def test_own_seconds_leave_out_nested_stages(self, clock):
        scope = RunScope("ledger", trace=False)
        with scope.activate():
            clock.now = 1.0
            with obs_runtime.timed("outer"):
                clock.now = 3.0
                with obs_runtime.timed("inner"):
                    clock.now = 7.0
                with obs_runtime.timed("inner"):
                    clock.now = 8.0
                clock.now = 10.0
            clock.now = 12.0
        stages = scope.timings.snapshot()
        assert stages["inner"] == (5.0, 2, 5.0)
        assert stages["outer"] == (9.0, 1, 9.0 - 5.0)

    def test_root_is_wall_clock_less_top_level_stages(self, clock):
        scope = RunScope("ledger", trace=False)
        for _ in range(2):
            with scope.activate():
                with obs_runtime.timed("outer"):
                    with obs_runtime.timed("inner"):
                        clock.now += 2.0
                    clock.now += 1.0
                clock.now += 0.5
        stages = scope.timings.snapshot()
        # Two activations of 3.5 s each; 0.5 s of each is in no stage.
        assert stages[ROOT] == (7.0, 2, 1.0)
        assert sum(own for _, _, own in stages.values()) == stages[ROOT][0]

    def test_absorb_adds_child_stages_but_not_its_root(self, clock):
        child = RunScope("p", shard_id=1, trace=False)
        with child.activate():
            with obs_runtime.timed("shard.stage"):
                clock.now += 2.0
            clock.now += 1.0
        parent = RunScope("p", trace=False)
        with parent.activate():
            clock.now += 0.5
            obs_runtime.absorb(child.export())
        stages = parent.timings.snapshot()
        assert stages["shard.stage"] == (2.0, 1, 2.0)
        # The child's 3 s of wall clock overlap the parent's own.
        assert stages[ROOT] == (0.5, 1, 0.5)

    def test_export_inside_an_activation_counts_it_so_far(self, clock):
        scope = RunScope("open", trace=False)
        with scope.activate():
            with obs_runtime.timed("stage"):
                clock.now = 2.0
            clock.now = 5.0
            inside = scope.export()["timings"]
            clock.now = 9.0
        assert inside[ROOT] == {"seconds": 5.0, "calls": 1, "own": 3.0}
        after = scope.export()["timings"]
        assert after[ROOT] == {"seconds": 9.0, "calls": 1, "own": 7.0}
        assert after["stage"] == {"seconds": 2.0, "calls": 1, "own": 2.0}


def _assert_ledger_adds_up(store, run_id) -> dict:
    """Every stage entry carries own seconds; with the root they sum to wall."""
    stages = store.load_run_timings(run_id)["stages"]
    root = stages.pop(ROOT)
    assert stages
    for entry in stages.values():
        assert set(entry) == {"seconds", "calls", "own"}
        assert 0 <= entry["own"] <= entry["seconds"] + 1e-6
    own = sum(entry["own"] for entry in stages.values())
    assert own + root["own"] == pytest.approx(root["seconds"], abs=1e-5)
    return root


class TestRunLedger:
    def test_monolithic_and_stream_runs_add_up(self, tmp_path):
        from repro.datasets import evolving_bundle

        (delta,) = evolving_bundle(seed=0, scale=0.4, steps=1).deltas
        with MatchingService(RunStore(tmp_path / "store.db")) as service:
            run_id = service.submit("iimb", scale=0.2, background=False)
            service.step(run_id)
            service.result(run_id)
            # One activation per step, and the finishing one.
            assert _assert_ledger_adds_up(service.store, run_id)["calls"] >= 2
            root_id = service.submit(
                "evolving", scale=0.4, stream=True, workers=1, background=False
            )
            service.result(root_id)
            _assert_ledger_adds_up(service.store, root_id)
            update_id = service.update(root_id, delta, background=False)
            service.result(update_id)
            _assert_ledger_adds_up(service.store, update_id)
            stages = service.store.load_run_timings(update_id)["stages"]
            for name in (
                "stream.delta_apply",
                "stream.fingerprint",
                "stream.dirty_closure",
                "partition.plan",
            ):
                assert stages[name]["calls"] == 1


def _export(service, run_id, root):
    return export_run_artifacts(service.store, run_id, root=root)


def _read_ledger(dest):
    return json.loads((dest / "cost_ledger.json").read_text())


def _iimb_fingerprint():
    bundle = load_dataset("iimb", scale=0.2)
    return kb_pair_fingerprint(bundle.kb1, bundle.kb2)


class TestArtifactContract:
    def test_plain_run_exports_full_contract(self, tmp_path):
        with MatchingService(RunStore(tmp_path / "store.db")) as service:
            run_id = service.submit("iimb", scale=0.2, background=False)
            result = service.result(run_id)
            dest = _export(service, run_id, tmp_path / "runs")
            assert sorted(p.name for p in dest.iterdir()) == sorted(ARTIFACT_FILES)
            meta = json.loads((dest / "meta.json").read_text())
            assert meta["run_id"] == run_id
            assert meta["dataset"] == "iimb"
            assert meta["kb_fingerprint"] == _iimb_fingerprint()
            assert "accel" not in meta
            pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
            project = tomllib.loads(pyproject.read_text())["project"]
            assert meta["repro_version"] == project["version"]
            ledger = _read_ledger(dest)
            assert ledger["total"] == result.questions_asked
            assert sum(i["questions"] for i in ledger["items"]) == ledger["total"]
            assert all(i["scope"] == "loop" for i in ledger["items"])
            spans = [
                json.loads(line)
                for line in (dest / "trace.jsonl").read_text().splitlines()
            ]
            assert spans and all(s["run_id"] == run_id for s in spans)
            assert "loop.iteration" in {s["name"] for s in spans}
            metrics = json.loads((dest / "metrics.json").read_text())
            assert metrics["counters"]["crowd.questions_billed"] == (
                result.questions_asked
            )
            stored = json.loads((dest / "result.json").read_text())
            assert stored == result_to_doc(result)

    def test_partitioned_run_ledger_itemises_shards(self, tmp_path):
        with MatchingService(RunStore(tmp_path / "store.db")) as service:
            run_id = service.submit(
                "iimb", scale=0.2, workers=2, background=False
            )
            result = service.result(run_id)
            dest = _export(service, run_id, tmp_path / "runs")
            meta = json.loads((dest / "meta.json").read_text())
            assert meta["kb_fingerprint"] == _iimb_fingerprint()
            ledger = _read_ledger(dest)
            assert ledger["total"] == result.questions_asked
            assert all(i["scope"] == "shard" for i in ledger["items"])
            assert {i["kind"] for i in ledger["items"]} <= {"graph", "isolated"}

    def test_stream_run_ledger_itemises_units(self, tmp_path):
        with MatchingService(RunStore(tmp_path / "store.db")) as service:
            run_id = service.submit(
                "iimb", scale=0.2, stream=True, background=False
            )
            result = service.result(run_id)
            dest = _export(service, run_id, tmp_path / "runs")
            ledger = _read_ledger(dest)
            assert ledger["total"] == result.questions_asked
            assert all(i["scope"] == "stream_unit" for i in ledger["items"])
            assert "questions_new" in ledger
            metrics = json.loads((dest / "metrics.json").read_text())
            assert "stream.units.executed" in metrics["counters"]

    def test_pre_obs_run_falls_back(self, tmp_path):
        # A ledger row persisted before the obs layer existed (no run_obs
        # document) still exports the contract with a one-item ledger.
        store = RunStore(tmp_path / "store.db")
        run_id = store.create_run("iimb", 0, 0.2, None)
        record = store.get_run(run_id)
        dest = export_run_artifacts(store, run_id, root=tmp_path / "runs")
        assert sorted(p.name for p in dest.iterdir()) == sorted(
            set(ARTIFACT_FILES) - {"result.json"}
        )
        ledger = _read_ledger(dest)
        assert ledger == fallback_cost_ledger(record)
        store.close()

    def test_unknown_run_raises(self, tmp_path):
        store = RunStore(tmp_path / "store.db")
        with pytest.raises(KeyError):
            export_run_artifacts(store, "nope", root=tmp_path / "runs")
        store.close()

    def test_existing_export_refused_unless_forced(self, tmp_path):
        store = RunStore(tmp_path / "store.db")
        run_id = store.create_run("iimb", 0, 0.2, None)
        dest = export_run_artifacts(store, run_id, root=tmp_path / "runs")
        marker = dest / "meta.json"
        before = marker.read_text()
        marker.write_text('{"tampered": true}')
        with pytest.raises(FileExistsError, match="--force"):
            export_run_artifacts(store, run_id, root=tmp_path / "runs")
        # The refused export touched nothing.
        assert marker.read_text() == '{"tampered": true}'
        export_run_artifacts(store, run_id, root=tmp_path / "runs", force=True)
        assert marker.read_text() == before
        store.close()

    def test_empty_destination_directory_is_fine(self, tmp_path):
        store = RunStore(tmp_path / "store.db")
        run_id = store.create_run("iimb", 0, 0.2, None)
        (tmp_path / "runs" / run_id).mkdir(parents=True)
        dest = export_run_artifacts(store, run_id, root=tmp_path / "runs")
        assert (dest / "meta.json").exists()
        store.close()


class TestTracingDoesNotPerturbResults:
    def test_results_byte_identical_with_and_without_tracing(
        self, tmp_path, monkeypatch
    ):
        def run(store_path):
            with MatchingService(RunStore(store_path)) as service:
                run_id = service.submit(
                    "iimb", scale=0.2, error_rate=0.05, background=False
                )
                return service.result(run_id), service.store.load_run_obs(run_id)

        traced, traced_doc = run(tmp_path / "on.db")
        monkeypatch.setenv("REPRO_NO_TRACE", "1")
        untraced, untraced_doc = run(tmp_path / "off.db")
        assert json.dumps(result_to_doc(traced), sort_keys=True) == json.dumps(
            result_to_doc(untraced), sort_keys=True
        )
        assert traced_doc["trace"]
        assert untraced_doc["trace"] == []
        # Counters (the cost ledger's substrate) stay on either way.
        assert (
            untraced_doc["metrics"]["counters"]["crowd.questions_billed"]
            == untraced.questions_asked
        )


class TestBenchmarkDoc:
    def test_shape_matches_run_artifacts(self):
        registry = MetricsRegistry()
        registry.count("bench.iterations", 3)
        doc = benchmark_metrics_doc({"bench": "obs"}, registry.as_doc())
        assert doc["meta"] == {"bench": "obs"}
        assert doc["metrics"]["counters"]["bench.iterations"] == 3


class TestLoggingGate:
    def test_unset_env_keeps_library_silent(self, monkeypatch):
        monkeypatch.delenv("REPRO_LOG", raising=False)
        monkeypatch.setattr("repro.obs.logging._applied", None)
        get_logger("service")
        root = logging.getLogger("repro")
        assert all(isinstance(h, logging.NullHandler) for h in root.handlers)

    def test_env_attaches_stderr_handler_at_level(self, monkeypatch):
        monkeypatch.setenv("REPRO_LOG", "debug")
        monkeypatch.setattr("repro.obs.logging._applied", None)
        logger = get_logger("partition")
        assert logger.name == "repro.partition"
        root = logging.getLogger("repro")
        assert root.level == logging.DEBUG
        assert any(
            isinstance(h, logging.StreamHandler)
            and not isinstance(h, logging.NullHandler)
            for h in root.handlers
        )
        # Restore the silent default for the rest of the suite.
        monkeypatch.setenv("REPRO_LOG", "")
        monkeypatch.setattr("repro.obs.logging._applied", None)
        get_logger("partition")

    def test_bogus_level_falls_back_to_info(self, monkeypatch):
        monkeypatch.setenv("REPRO_LOG", "bananas")
        monkeypatch.setattr("repro.obs.logging._applied", None)
        get_logger("stream")
        assert logging.getLogger("repro").level == logging.INFO
        monkeypatch.setenv("REPRO_LOG", "")
        monkeypatch.setattr("repro.obs.logging._applied", None)
        get_logger("stream")
