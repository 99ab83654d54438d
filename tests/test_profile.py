"""Sampling profiler: folded stacks, scope integration, shard absorption."""

import json
import sys
import time

from repro.obs import RunScope
from repro.obs import runtime as obs_runtime
from repro.obs.profile import (
    DEFAULT_INTERVAL,
    SamplingProfiler,
    fold_stack,
    folded_text,
    profile_interval,
    profiling_enabled,
    top_stacks,
)
from repro.service import MatchingService
from repro.store import RunStore


def _spin(seconds: float) -> None:
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        sum(range(100))


class TestFoldStack:
    def test_root_first_semicolon_joined(self):
        def inner():
            return fold_stack(sys._getframe())

        def outer():
            return inner()

        folded = outer()
        frames = folded.split(";")
        # Leaf (innermost frame) last, caller before it.
        assert frames[-1].endswith("TestFoldStack.test_root_first_semicolon_joined.<locals>.inner")
        assert frames[-2].endswith("TestFoldStack.test_root_first_semicolon_joined.<locals>.outer")
        assert all("test_profile" in frame for frame in frames[-2:])

    def test_profiler_frames_are_skipped(self):
        folded = fold_stack(sys._getframe())
        assert "repro.obs.profile" not in folded


class TestSamplingProfiler:
    def test_collects_samples_while_running(self):
        profiler = SamplingProfiler(interval=0.001)
        profiler.start()
        _spin(0.1)
        profiler.stop()
        doc = profiler.as_doc()
        assert doc["samples"] > 0
        assert doc["stacks"]
        assert sum(doc["stacks"].values()) == doc["samples"]
        assert doc["interval"] == 0.001
        assert any("_spin" in stack for stack in doc["stacks"])
        json.dumps(doc)  # the document is JSON-able

    def test_samples_accumulate_across_restarts(self):
        profiler = SamplingProfiler(interval=0.001)
        profiler.start()
        _spin(0.05)
        profiler.stop()
        first = profiler.samples
        assert first > 0
        profiler.start()
        _spin(0.05)
        profiler.stop()
        assert profiler.samples > first

    def test_double_start_and_stop_are_idempotent(self):
        profiler = SamplingProfiler(interval=0.001)
        profiler.start()
        profiler.start()
        profiler.stop()
        profiler.stop()  # must not raise

    def test_absorb_folds_foreign_document(self):
        profiler = SamplingProfiler(interval=0.001)
        profiler.absorb({"samples": 3, "stacks": {"a;b": 2, "a;c": 1}})
        profiler.absorb({"samples": 1, "stacks": {"a;b": 1}})
        doc = profiler.as_doc()
        assert doc["samples"] == 4
        assert doc["stacks"] == {"a;b": 3, "a;c": 1}

    def test_folded_text_and_top_stacks(self):
        doc = {"samples": 5, "stacks": {"a;b": 3, "a;c": 2}}
        assert folded_text(doc) == "a;b 3\na;c 2\n"
        assert folded_text({"stacks": {}}) == ""
        assert top_stacks(doc, limit=1) == [("a;b", 3)]


class TestEnvGates:
    def test_profiling_enabled_truthy_values(self, monkeypatch):
        monkeypatch.delenv("REPRO_PROFILE", raising=False)
        assert not profiling_enabled()
        for value in ("1", "true", "YES", "on"):
            monkeypatch.setenv("REPRO_PROFILE", value)
            assert profiling_enabled()
        monkeypatch.setenv("REPRO_PROFILE", "0")
        assert not profiling_enabled()

    def test_interval_parsing_falls_back(self, monkeypatch):
        monkeypatch.delenv("REPRO_PROFILE_INTERVAL", raising=False)
        assert profile_interval() == DEFAULT_INTERVAL
        monkeypatch.setenv("REPRO_PROFILE_INTERVAL", "0.02")
        assert profile_interval() == 0.02
        monkeypatch.setenv("REPRO_PROFILE_INTERVAL", "bananas")
        assert profile_interval() == DEFAULT_INTERVAL
        monkeypatch.setenv("REPRO_PROFILE_INTERVAL", "-1")
        assert profile_interval() == DEFAULT_INTERVAL


class TestRunScopeIntegration:
    def test_profiled_scope_exports_profile(self, monkeypatch):
        monkeypatch.setenv("REPRO_PROFILE_INTERVAL", "0.001")
        scope = RunScope("run-p", profile=True)
        with scope.activate():
            _spin(0.1)
        doc = scope.export()
        assert doc["profile"]["samples"] > 0
        assert doc["profile"]["stacks"]

    def test_unprofiled_scope_has_no_profile(self):
        scope = RunScope("run-q", profile=False)
        with scope.activate():
            pass
        assert "profile" not in scope.export()
        assert scope.profiler is None

    def test_env_gate_enables_by_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_PROFILE", "1")
        assert RunScope("run-r").profiling
        monkeypatch.delenv("REPRO_PROFILE")
        assert not RunScope("run-s").profiling
        # An explicit argument wins over the environment either way.
        monkeypatch.setenv("REPRO_PROFILE", "1")
        assert not RunScope("run-t", profile=False).profiling

    def test_absorb_helper_routes_shard_profiles(self):
        parent = RunScope("run-u", profile=False)
        shard_profile = {"samples": 7, "stacks": {"x;y": 7}}
        with parent.activate():
            obs_runtime.absorb(
                {"timings": {}, "trace": [], "metrics": {}, "profile": shard_profile}
            )
        doc = parent.export()
        assert doc["profile"]["samples"] == 7
        assert doc["profile"]["stacks"] == {"x;y": 7}


class TestServiceIntegration:
    def test_profiled_run_persists_and_exports_folded_stacks(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_PROFILE", "1")
        monkeypatch.setenv("REPRO_PROFILE_INTERVAL", "0.001")
        with MatchingService(RunStore(tmp_path / "s.db")) as service:
            run_id = service.submit("iimb", scale=0.2, background=False)
            service.result(run_id)
            obs_doc = service.store.load_run_obs(run_id)
            from repro.obs import export_run_artifacts

            dest = export_run_artifacts(
                service.store, run_id, root=tmp_path / "runs"
            )
        assert obs_doc["profile"]["samples"] > 0
        folded = (dest / "profile.folded").read_text()
        assert folded.strip()
        for line in folded.strip().splitlines():
            stack, count = line.rsplit(" ", 1)
            assert ";" in stack or stack
            assert int(count) > 0

    def test_unprofiled_run_exports_no_folded_file(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_PROFILE", raising=False)
        with MatchingService(RunStore(tmp_path / "s.db")) as service:
            run_id = service.submit("iimb", scale=0.2, background=False)
            service.result(run_id)
            from repro.obs import export_run_artifacts

            dest = export_run_artifacts(
                service.store, run_id, root=tmp_path / "runs"
            )
        assert not (dest / "profile.folded").exists()
